// Command wfbench regenerates the correctness half of EXPERIMENTS.md: the
// experiments E1–E13 that reproduce the paper's figures and appendix
// traces (plus the WAL, checkpoint, storage-fault, shard-crash,
// archive-tier and queryable-history soaks) and the S1 simulation. The
// measurement tables B1–B16 are the testing.B benchmarks of the repository
// root: go test -run '^$' -bench . -benchmem ./
//
//	wfbench                  # run E1–E13 and S1
//	wfbench -experiment E2   # one experiment
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
	exp := flag.String("experiment", "all", "E1..E13, S1, or all")
	flightDump := flag.String("flight-dump", "", "attach a flight recorder to the default event bus and dump its JSONL here at exit")
	trailExport := flag.String("trail-export", "", "stream every default-bus event to this file as a history/v1 JSONL trail export (unbounded, unlike the flight recorder's ring)")
	flag.Parse()

	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "S1"}
	experiments := map[string]func() *sim.Report{
		"E1": sim.RunE1, "E2": sim.RunE2, "E3": sim.RunE3, "E4": sim.RunE4, "E5": sim.RunE5, "E6": sim.RunE6,
		"E7": sim.RunE7, "E8": sim.RunE8, "E9": sim.RunE9, "E10": sim.RunE10, "E11": sim.RunE11, "E12": sim.RunE12,
		"E13": sim.RunE13, "S1": sim.RunS1,
	}
	if !strings.EqualFold(*exp, "all") {
		if _, ok := experiments[strings.ToUpper(*exp)]; !ok {
			fmt.Fprintf(os.Stderr, "wfbench: unknown experiment %q\n", *exp)
			return 2
		}
		order = []string{strings.ToUpper(*exp)}
	}

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

	code := 0
	for _, id := range order {
		rep := experiments[id]()
		fmt.Println(rep)
		if !rep.Pass {
			code = 1
		}
	}
	return code
}
