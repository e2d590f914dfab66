package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// TestSharedPlansAcrossGoroutines instantiates and runs the same two
// templates from 8 goroutines on one engine (run under -race). The
// goroutines are released together on a fresh engine, so the first use of
// every plan and container layout is contended; every instance must then
// have navigated exactly as the instance of a lone goroutine does.
func TestSharedPlansAcrossGoroutines(t *testing.T) {
	newEngine := func() *engine.Engine {
		inj := rm.NewInjector() // AbortAlways keeps no per-call state to race on
		inj.AbortAlways("book_car")
		inj.AbortAlways("F8")
		return atmEngine(t, inj, engine.WithBus(obs.NewBus()), engine.WithClock(func() int64 { return 0 }))
	}
	run := func(e *engine.Engine, process string) (string, error) {
		inst, err := e.CreateInstance(process, nil, wal.Discard)
		if err != nil {
			return "", err
		}
		if err := inst.Start(); err != nil {
			return "", err
		}
		return fmt.Sprintf("%v %v %s", inst.Trail(), inst.ProgramRuns(), inst.Output()), nil
	}

	want := map[string]string{}
	for _, process := range []string{"travel", "fig3"} {
		var err error
		if want[process], err = run(newEngine(), process); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, rounds = 8, 25
	e := newEngine()
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-release
			for i := 0; i < rounds; i++ {
				process := []string{"travel", "fig3"}[(g+i)%2]
				got, err := run(e, process)
				if err != nil {
					t.Errorf("goroutine %d: %s: %v", g, process, err)
					return
				}
				if got != want[process] {
					t.Errorf("goroutine %d: %s navigated differently than alone:\n got %s\nwant %s", g, process, got, want[process])
					return
				}
			}
		}(g)
	}
	close(release)
	wg.Wait()
}
