package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// clockRun is one navigation under a counting clock: the reads it made,
// the navigation steps it took and the program completions on its trail.
type clockRun struct {
	inst                    *engine.Instance
	reads, steps, completed int64
	err                     error
}

// runCounted navigates one golden case on a fresh engine whose clock counts
// its reads — from the start when records is nil, else by recovering them.
func runCounted(t *testing.T, golden string, workers int, log wal.Log, records []wal.Record) clockRun {
	t.Helper()
	process, script := goldenScript(t, golden)
	inj := rm.NewInjector()
	script(inj)
	var run clockRun
	e := atmEngine(t, inj, engine.WithConcurrency(workers), engine.WithBus(obs.NewBus()),
		engine.WithClock(func() int64 { run.reads++; return run.reads }))
	if records == nil {
		run.inst, run.err = e.CreateInstanceID(process, "inst-1", nil, log)
		if run.err != nil {
			t.Fatal(run.err)
		}
		run.err = run.inst.Start()
	} else {
		run.inst, run.err = engine.Recover(e, records, log)
	}
	run.steps = e.Metrics().Counter("engine.navigation.steps").Value()
	run.completed = int64(len(run.inst.ProgramRuns()))
	return run
}

// check asserts the clock-read budget: one read on entry to Start, one
// per navigation step and one per program completion, replayed or run.
func (r clockRun) check(t *testing.T) {
	t.Helper()
	if want := 1 + r.steps + r.completed; r.reads != want {
		t.Errorf("clock reads = %d, want 1 + %d steps + %d completions = %d", r.reads, r.steps, r.completed, want)
	}
}

// TestClockReadsPerStep checks how often navigation reads the engine
// clock: once per navigating call, navigation step and program completion,
// not once per trail event — live and in every recovery of a crashed run.
// The exact counts are rows of the root cost ledger (clock-reads*);
// TestProgramAdvancesClock checks where the stamps fall.
func TestClockReadsPerStep(t *testing.T) {
	for _, golden := range []string{"travel-commit", "travel-compensated", "fig3-commit", "fig3-alternative"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", golden, workers), func(t *testing.T) {
				cleanLog := &wal.MemLog{}
				clean := runCounted(t, golden, workers, cleanLog, nil)
				if clean.err != nil || !clean.inst.Finished() {
					t.Fatalf("crash-free run: %v", clean.err)
				}
				clean.check(t)
				readies := 0
				trail := clean.inst.Trail()
				for _, ev := range trail {
					if ev.Kind == engine.EvReady {
						readies++
					}
				}
				// Before one stamp per step, every event and every ready
				// activity read the clock.
				if before := int64(len(trail) + readies); 3*clean.reads > before {
					t.Errorf("clock reads = %d, want at most a third of the %d events plus readies", clean.reads, before)
				}

				for k := 1; k < len(cleanLog.Records()); k++ {
					crashLog := &wal.MemLog{CrashAfter: k}
					crashed := runCounted(t, golden, workers, crashLog, nil)
					if !errors.Is(crashed.err, wal.ErrCrash) {
						t.Fatalf("k=%d: Start = %v, want the injected crash", k, crashed.err)
					}
					crashed.check(t)
					rec := runCounted(t, golden, workers, nil, crashLog.Records())
					if rec.err != nil || !rec.inst.Finished() {
						t.Fatalf("k=%d: recovery: %v", k, rec.err)
					}
					rec.check(t)
					if workers == 1 && !reflect.DeepEqual(rec.inst.Trail(), trail) {
						t.Errorf("k=%d: recovered trail, stamps included, differs from the crash-free one", k)
					}
				}
			})
		}
	}
}
