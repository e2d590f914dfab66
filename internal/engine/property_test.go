package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/randdag"
	"repro/internal/wal"
)

// coinProgram commits or aborts pseudo-randomly but deterministically per
// (instance, path, iter).
type coinProgram struct{ seed int64 }

func (c *coinProgram) Run(inv *Invocation) error {
	h := int64(0)
	for _, b := range inv.Path {
		h = h*131 + int64(b)
	}
	r := rand.New(rand.NewSource(c.seed ^ h ^ int64(inv.Iter)))
	inv.Out.SetRC(int64(r.Intn(2)))
	return nil
}

// TestPropertyRandomDAGsComplete is experiment E5: on random DAGs with
// random conditions, joins and abort outcomes, navigation always drives
// every activity to terminated — dead path elimination guarantees progress
// and the synchronizing or-join never deadlocks.
func TestPropertyRandomDAGsComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		pEdge := 0.1 + 0.5*r.Float64()
		proc := randdag.Process(r, "Rand", n, pEdge)
		if err := proc.Validate(nil); err != nil {
			t.Logf("seed %d: generator produced invalid process: %v", seed, err)
			return false
		}
		e := New()
		if err := e.RegisterProgram("coin", &coinProgram{seed: seed}); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterProcess(proc); err != nil {
			t.Logf("seed %d: register: %v", seed, err)
			return false
		}
		inst, err := e.CreateInstance("Rand", nil, nil)
		if err != nil {
			t.Logf("seed %d: create: %v", seed, err)
			return false
		}
		if err := inst.Start(); err != nil {
			t.Logf("seed %d: start: %v", seed, err)
			return false
		}
		if !inst.Finished() {
			t.Logf("seed %d: instance stuck", seed)
			return false
		}
		for _, a := range proc.Activities {
			if s, ok := inst.ActivityState(a.Name); !ok || s != StateTerminated {
				t.Logf("seed %d: %s in state %v", seed, a.Name, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterministicReplay: recovering from a crash at a random
// point always reproduces the crash-free program-run history.
func TestPropertyDeterministicReplay(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		proc := randdag.Process(r, "Rand", n, 0.4)

		mkEngine := func() *Engine {
			e := New()
			if err := e.RegisterProgram("coin", &coinProgram{seed: seed}); err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterProcess(proc); err != nil {
				t.Fatal(err)
			}
			return e
		}
		// Crash-free baseline.
		base := mkEngine()
		cleanLog := &wal.MemLog{}
		inst0, err := base.CreateInstance("Rand", nil, cleanLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst0.Start(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(inst0.ProgramRuns())

		if cleanLog.Len() < 2 {
			return true
		}
		crashAt := 1 + r.Intn(cleanLog.Len()-1)
		e := mkEngine()
		log := &wal.MemLog{CrashAfter: crashAt}
		inst, err := e.CreateInstance("Rand", nil, log)
		if err != nil {
			t.Fatal(err)
		}
		_ = inst.Start() // expected to crash (or finish if crashAt beyond writes)
		e2 := mkEngine()
		rec, err := Recover(e2, log.Records(), nil)
		if err != nil {
			t.Logf("seed %d: recover: %v", seed, err)
			return false
		}
		if !rec.Finished() {
			t.Logf("seed %d: recovered instance stuck", seed)
			return false
		}
		got := fmt.Sprint(rec.ProgramRuns())
		if got != want {
			t.Logf("seed %d: runs diverge\n got %s\nwant %s", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDPENeverRunsFalseStarts: a program never executes when its
// start condition evaluated false (soundness of dead path elimination).
func TestPropertyDPENeverRunsFalseStarts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		proc := randdag.Process(r, "Rand", n, 0.5)
		e := New()
		if err := e.RegisterProgram("coin", &coinProgram{seed: seed}); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterProcess(proc); err != nil {
			t.Fatal(err)
		}
		inst, err := e.CreateInstance("Rand", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
		// Reconstruct connector values from the trail and check each
		// started activity's join was satisfied.
		connVal := map[string]map[string]bool{} // to -> from -> val
		started := map[string]bool{}
		for _, ev := range inst.Trail() {
			switch ev.Kind {
			case EvConnector:
				m := connVal[ev.To]
				if m == nil {
					m = map[string]bool{}
					connVal[ev.To] = m
				}
				m[ev.From] = ev.Value
			case EvStarted:
				started[ev.Path] = true
			}
		}
		for name := range started {
			act := proc.Graph.Activity(name)
			incoming := proc.Incoming(name)
			if len(incoming) == 0 {
				continue
			}
			anyTrue, allTrue := false, true
			for _, c := range incoming {
				if connVal[name][c.From] {
					anyTrue = true
				} else {
					allTrue = false
				}
			}
			ok := allTrue
			if act.Join == model.JoinOr {
				ok = anyTrue
			}
			if !ok {
				t.Logf("seed %d: %s started with unsatisfied join", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
