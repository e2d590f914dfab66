package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/randdag"
)

// fanProcess builds A -> (W1..Ww) -> Z.
func fanProcess(width int) *model.Process {
	p := model.NewProcess("Fan")
	p.Activities = append(p.Activities, &model.Activity{Name: "A", Kind: model.KindProgram, Program: "ok"})
	for i := 0; i < width; i++ {
		w := "W" + string(rune('a'+i))
		p.Activities = append(p.Activities, &model.Activity{Name: w, Kind: model.KindProgram, Program: "slow"})
		p.Control = append(p.Control,
			&model.ControlConnector{From: "A", To: w, Condition: expr.MustParse("RC = 0")},
			&model.ControlConnector{From: w, To: "Z", Condition: expr.MustParse("RC = 0")},
		)
	}
	p.Activities = append(p.Activities, &model.Activity{Name: "Z", Kind: model.KindProgram, Program: "ok"})
	return p
}

func TestConcurrentFanOut(t *testing.T) {
	const width = 6
	const delay = 20 * time.Millisecond
	var peak, cur atomic.Int32

	mkEngine := func(conc int) *Engine {
		e := New(WithConcurrency(conc))
		if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(delay)
			cur.Add(-1)
			inv.Out.SetRC(0)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterProcess(fanProcess(width)); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Sequential baseline.
	peak.Store(0)
	e1 := mkEngine(1)
	start := time.Now()
	inst1, err := e1.CreateInstance("Fan", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst1.Start(); err != nil {
		t.Fatal(err)
	}
	seqElapsed := time.Since(start)
	if !inst1.Finished() || peak.Load() != 1 {
		t.Fatalf("sequential run: finished=%v peak=%d", inst1.Finished(), peak.Load())
	}

	// Concurrent run: workers overlap.
	peak.Store(0)
	e2 := mkEngine(width)
	start = time.Now()
	inst2, err := e2.CreateInstance("Fan", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst2.Start(); err != nil {
		t.Fatal(err)
	}
	concElapsed := time.Since(start)
	if !inst2.Finished() {
		t.Fatal("concurrent run not finished")
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("no overlap observed: peak concurrency = %d", got)
	}
	// Same work done.
	if len(inst2.ProgramRuns()) != len(inst1.ProgramRuns()) {
		t.Fatalf("program runs differ: %d vs %d", len(inst2.ProgramRuns()), len(inst1.ProgramRuns()))
	}
	// Wall clock: width sequential sleeps vs overlapped ones. Allow a wide
	// margin to avoid scheduler flakes; overlap alone is the hard claim.
	if concElapsed > seqElapsed {
		t.Logf("note: concurrent (%v) not faster than sequential (%v) on this machine", concElapsed, seqElapsed)
	}
}

func TestConcurrentPoolBound(t *testing.T) {
	const width = 8
	const poolSize = 2
	var peak, cur atomic.Int32
	e := New(WithConcurrency(poolSize))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(fanProcess(width)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Fan", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	if got := peak.Load(); got > poolSize {
		t.Fatalf("pool bound violated: peak = %d > %d", got, poolSize)
	}
}

func TestConcurrentProgramErrorDrains(t *testing.T) {
	// One worker fails; the instance must fail without leaking goroutines
	// or deadlocking on in-flight completions.
	e := New(WithConcurrency(4))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("worker exploded")
	calls := atomic.Int32{}
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		if calls.Add(1) == 2 {
			return boom
		}
		time.Sleep(2 * time.Millisecond)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(fanProcess(6)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Fan", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); !errors.Is(err, boom) {
		t.Fatalf("want worker error, got %v", err)
	}
	if inst.Finished() {
		t.Fatal("failed instance reported finished")
	}
}

func TestConcurrentDeterministicOutcome(t *testing.T) {
	// Outcomes (not trail order) are deterministic: the same fan process
	// run concurrently many times always commits everything.
	e := New(WithConcurrency(4))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("slow", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(fanProcess(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		inst, err := e.CreateInstance("Fan", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
		if !inst.Finished() || len(inst.ProgramRuns()) != 7 {
			t.Fatalf("iteration %d: finished=%v runs=%d", i, inst.Finished(), len(inst.ProgramRuns()))
		}
		if s, _ := inst.ActivityState("Z"); s != StateTerminated {
			t.Fatal("join activity not terminated")
		}
	}
}

// TestPropertyConcurrentSameRunSet: on random DAGs, the concurrent
// scheduler executes exactly the same set of (path, program, rc) runs as
// the sequential one — only the interleaving may differ.
func TestPropertyConcurrentSameRunSet(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runs := func(conc int) map[string]int {
			e := New(WithConcurrency(conc))
			if err := e.RegisterProgram("coin", &coinProgram{seed: seed}); err != nil {
				t.Fatal(err)
			}
			r := randFor(seed)
			proc := randdag.Process(r, "Rand", 3+r.Intn(10), 0.4)
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
			if !inst.Finished() {
				t.Fatalf("seed %d conc %d: stuck", seed, conc)
			}
			set := map[string]int{}
			for _, pr := range inst.ProgramRuns() {
				set[fmt.Sprintf("%s#%d:%d", pr.Path, pr.Iter, pr.RC)]++
			}
			return set
		}
		seq := runs(1)
		conc := runs(4)
		if len(seq) != len(conc) {
			t.Fatalf("seed %d: run sets differ in size: %v vs %v", seed, seq, conc)
		}
		for k, v := range seq {
			if conc[k] != v {
				t.Fatalf("seed %d: run %s count %d vs %d", seed, k, v, conc[k])
			}
		}
	}
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
