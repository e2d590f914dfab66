package rm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/txdb"
)

func TestInjectorScripts(t *testing.T) {
	inj := NewInjector()
	inj.Script("t1", Abort, Abort, Commit)
	want := []Outcome{Abort, Abort, Commit, Commit, Commit}
	for i, w := range want {
		if got := inj.Decide("t1"); got != w {
			t.Fatalf("attempt %d = %v, want %v", i, got, w)
		}
	}
	if inj.Attempts("t1") != 5 {
		t.Fatalf("attempts = %d", inj.Attempts("t1"))
	}
	// Unscripted names commit.
	if inj.Decide("other") != Commit {
		t.Fatal("unscripted should commit")
	}
}

func TestInjectorAbortAlwaysAndAbortN(t *testing.T) {
	inj := NewInjector()
	inj.AbortAlways("p")
	for i := 0; i < 10; i++ {
		if inj.Decide("p") != Abort {
			t.Fatal("AbortAlways leaked a commit")
		}
	}
	inj.AbortN("r", 3)
	got := []Outcome{inj.Decide("r"), inj.Decide("r"), inj.Decide("r"), inj.Decide("r")}
	if got[0] != Abort || got[1] != Abort || got[2] != Abort || got[3] != Commit {
		t.Fatalf("AbortN sequence: %v", got)
	}
}

func TestExecCommitAndAbort(t *testing.T) {
	store := txdb.Open("db")
	rec := &Recorder{}
	inj := NewInjector()
	inj.Script("s", Commit, Abort)

	sub := Subtransaction{Name: "s", Store: store, Work: func(tx *txdb.Tx) error {
		return tx.Put("k", "v")
	}}
	// First attempt commits: the write is durable.
	ok, err := Exec(sub, inj, rec)
	if err != nil || !ok {
		t.Fatalf("Exec: %v %v", ok, err)
	}
	if store.Len() != 1 {
		t.Fatal("committed write missing")
	}
	// Second attempt is aborted at commit time: the write is undone.
	sub2 := Subtransaction{Name: "s", Store: store, Work: func(tx *txdb.Tx) error {
		return tx.Put("k2", "v2")
	}}
	ok, err = Exec(sub2, inj, rec)
	if err != nil || ok {
		t.Fatalf("Exec: %v %v, want injected abort", ok, err)
	}
	if store.Len() != 1 {
		t.Fatal("aborted write survived")
	}
	events := rec.Events()
	if len(events) != 2 || events[0].String() != "s:commit" || events[1].String() != "s:abort" {
		t.Fatalf("history: %v", events)
	}
	if got := rec.Committed(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("committed: %v", got)
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestExecNilStoreAndNilDecider(t *testing.T) {
	ok, err := Exec(Subtransaction{Name: "pure"}, nil, nil)
	if err != nil || !ok {
		t.Fatalf("nil store/decider: %v %v", ok, err)
	}
	inj := NewInjector()
	inj.AbortAlways("pure")
	ok, err = Exec(Subtransaction{Name: "pure"}, inj, nil)
	if err != nil || ok {
		t.Fatalf("nil store with abort: %v %v", ok, err)
	}
}

func TestExecWorkErrorIsInfrastructure(t *testing.T) {
	store := txdb.Open("db")
	boom := errors.New("boom")
	sub := Subtransaction{Name: "s", Store: store, Work: func(tx *txdb.Tx) error { return boom }}
	if _, err := Exec(sub, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("want wrapped work error, got %v", err)
	}
}

func TestExecDeadlockCountsAsAbort(t *testing.T) {
	store := txdb.Open("db")
	rec := &Recorder{}
	sub := Subtransaction{Name: "s", Store: store, Work: func(tx *txdb.Tx) error {
		return fmt.Errorf("wrapped: %w", txdb.ErrDeadlock)
	}}
	ok, err := Exec(sub, nil, rec)
	if err != nil || ok {
		t.Fatalf("deadlock should be a normal abort: %v %v", ok, err)
	}
	if ev := rec.Events(); len(ev) != 1 || ev[0].Kind != EvAbort {
		t.Fatalf("history: %v", ev)
	}
}

func TestProgramAdapter(t *testing.T) {
	store := txdb.Open("db")
	inj := NewInjector()
	inj.Script("work", Abort, Commit)
	rec := &Recorder{}

	e := engine.New()
	sub := Subtransaction{Name: "work", Store: store, Work: func(tx *txdb.Tx) error {
		return tx.Put("done", "yes")
	}}
	if err := e.RegisterProgram(sub.Name, Program(sub, inj, rec)); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("P")
	p.Activities = []*model.Activity{{
		Name: "w", Kind: model.KindProgram, Program: "work",
		Exit: expr.MustParse("RC = 0"), // retry until commit
	}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("P", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	if inj.Attempts("work") != 2 {
		t.Fatalf("attempts = %d, want 2 (abort then commit)", inj.Attempts("work"))
	}
	if store.Len() != 1 {
		t.Fatal("final commit missing")
	}
	ev := rec.Events()
	if len(ev) != 2 || ev[0].Kind != EvAbort || ev[1].Kind != EvCommit {
		t.Fatalf("history: %v", ev)
	}
}
