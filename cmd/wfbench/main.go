// Command wfbench regenerates the evaluation of EXPERIMENTS.md: the
// correctness experiments E1–E13 that reproduce the paper's figures and
// appendix traces (plus the WAL, checkpoint, storage-fault, shard-crash,
// archive-tier and queryable-history soaks), and the measurement tables
// B9–B16. Tables B1–B8 are the testing.B benchmarks of the repository root:
// go test -bench . -benchmem ./
//
//	wfbench                  # run everything
//	wfbench -experiment E2   # one correctness experiment
//	wfbench -bench B9        # one measurement table
//	wfbench -experiment none # measurements only
//	wfbench -json out.json   # also write a machine-readable wfbench/v1 file
//	wfbench -flight-dump f.jsonl  # dump the run's event-bus flight recorder
//	wfbench -trail-export t.jsonl # stream every bus event as a history/v1 trail
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
)

// main delegates to realMain so the -flight-dump defer runs before the
// process exit code is set (os.Exit skips defers).
func main() {
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("experiment", "all", "E1..E13, all, or none")
	bench := flag.String("bench", "all", "B9..B16, S1, all, or none (B1..B8 run under go test -bench)")
	jsonOut := flag.String("json", "", "write every report as machine-readable JSON (wfbench/v1) to this file")
	flightDump := flag.String("flight-dump", "", "attach a flight recorder to the default event bus and dump its JSONL here at exit")
	trailExport := flag.String("trail-export", "", "stream every default-bus event to this file as a history/v1 JSONL trail export (unbounded, unlike the flight recorder's ring)")
	flag.Parse()

	if *trailExport != "" {
		w, err := history.NewWriter(*trailExport)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: trail export: %v\n", err)
			return 1
		}
		w.Attach(obs.DefaultBus)
		defer func() {
			if err := w.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "wfbench: trail export: %v\n", err)
				return
			}
			fmt.Printf("wrote %s (%d events)\n", *trailExport, w.Events())
		}()
	}

	if *flightDump != "" {
		rec := obs.NewRecorder(obs.DefaultRecorderSize)
		obs.DefaultBus.Attach(rec.Record)
		defer func() {
			if err := rec.DumpFile(*flightDump); err != nil {
				fmt.Fprintf(os.Stderr, "wfbench: flight dump: %v\n", err)
				return
			}
			fmt.Printf("wrote %s (%d of %d events retained)\n", *flightDump, rec.Len(), rec.Total())
		}()
	}

	var bf *sim.BenchFile
	if *jsonOut != "" {
		bf = sim.NewBenchFile()
	}

	experiments := map[string]func() *sim.Report{
		"E1": sim.RunE1, "E2": sim.RunE2, "E3": sim.RunE3, "E4": sim.RunE4, "E5": sim.RunE5, "E6": sim.RunE6,
		"E7": sim.RunE7, "E8": sim.RunE8, "E9": sim.RunE9, "E10": sim.RunE10, "E11": sim.RunE11, "E12": sim.RunE12,
		"E13": sim.RunE13,
	}
	benches := map[string]func() *sim.Report{
		"B9": sim.RunB9, "B10": sim.RunB10, "B11": sim.RunB11, "B12": sim.RunB12, "B13": sim.RunB13, "B14": sim.RunB14, "B15": sim.RunB15, "B16": sim.RunB16,
		"S1": sim.RunS1,
	}

	// Resolve both selections before running anything, so a mistyped
	// -bench fails at once rather than after the experiments.
	var runs []func() *sim.Report
	for _, s := range []struct {
		sel   string
		all   map[string]func() *sim.Report
		order []string
	}{
		{*exp, experiments, []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}},
		{*bench, benches, []string{"B9", "B10", "B11", "B12", "B13", "B14", "B15", "B16", "S1"}},
	} {
		switch strings.ToLower(s.sel) {
		case "none":
		case "all":
			for _, id := range s.order {
				runs = append(runs, s.all[id])
			}
		default:
			f, ok := s.all[strings.ToUpper(s.sel)]
			if !ok {
				fmt.Fprintf(os.Stderr, "wfbench: unknown selection %q\n", s.sel)
				return 2
			}
			runs = append(runs, f)
		}
	}

	code := 0
	for _, f := range runs {
		rep := f()
		fmt.Println(rep)
		if bf != nil {
			bf.Add(rep)
		}
		if !rep.Pass {
			code = 1
		}
	}
	if bf != nil {
		if err := bf.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: writing %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Printf("wrote %s (%d reports)\n", *jsonOut, len(bf.Reports))
	}
	return code
}
