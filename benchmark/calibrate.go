package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runCalibration is the evidence for the bounds in BENCHMARK.json: two
// sets of k untraced runs of a workload, every run a fresh process with
// its own seed, judged as the bounds are — each set's quartile spread
// as a share of its median, and how far the second median is from the
// first.
func runCalibration(workload string, seed uint64, seconds float64, workdir string, k int) error {
	names := []string{workload}
	if workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(workload); !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < k; i++ {
				runSeed := seed + uint64(s*k+i)
				cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(runSeed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workdir", workdir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, runSeed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					return fmt.Errorf("%s seed %d: last line: %w", name, runSeed, err)
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", name, runSeed, rep.Failed, rep.Attempted)
				}
				for m, v := range rep.Metrics {
					sets[s][m] = append(sets[s][m], v.Value)
				}
			}
		}
		fmt.Printf("%s: two sets of %d runs, seeds %d-%d and %d-%d, %gs each\n",
			name, k, seed, seed+uint64(k)-1, seed+uint64(k), seed+uint64(2*k)-1, seconds)
		fmt.Printf("  %-16s %-5s %12s %12s %12s %8s %12s %12s %12s %8s %8s\n",
			"metric", "unit", "A q1", "A median", "A q3", "A iqr", "B q1", "B median", "B q3", "B iqr", "B vs A")
		for _, d := range endToEnd {
			a, b := quartiles(sets[0][d.name]), quartiles(sets[1][d.name])
			fmt.Printf("  %-16s %-5s %12.6g %12.6g %12.6g %7.2f%% %12.6g %12.6g %12.6g %7.2f%% %+7.2f%%\n",
				d.name, d.unit, a[0], a[1], a[2], 100*(a[2]-a[0])/a[1],
				b[0], b[1], b[2], 100*(b[2]-b[0])/b[1], 100*(b[1]-a[1])/a[1])
		}
	}
	return nil
}
