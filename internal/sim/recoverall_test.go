package sim

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/wal"
)

// flakyProcess is a 3-step chain whose middle activity fails transiently
// on its first two attempts, so a crash-time log can hold a
// started-without-finish witness for an activity mid-retry.
func flakyProcess() *model.Process {
	p := model.NewProcess("Flaky")
	p.Activities = []*model.Activity{
		{Name: "F1", Kind: model.KindProgram, Program: "ok"},
		{Name: "F2", Kind: model.KindProgram, Program: "flaky",
			Retry: &model.RetryPolicy{MaxAttempts: 3, BackoffMS: 1}},
		{Name: "F3", Kind: model.KindProgram, Program: "ok"},
	}
	p.Control = []*model.ControlConnector{
		{From: "F1", To: "F2", Condition: expr.MustParse("RC = 0")},
		{From: "F2", To: "F3", Condition: expr.MustParse("RC = 0")},
	}
	return p
}

// mixedFleetEngine registers every workload the interleaved recovery
// test uses on one engine: the plain chain, the travel saga on its
// compensation path, and the flaky retry chain.
func mixedFleetEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, _ := travelWorkload()
	mustRegister(e, "ok", OKProgram)
	mustRegister(e, "flaky", engine.ProgramFunc(func(inv *engine.Invocation) error {
		if inv.Attempt < 3 {
			return engine.Transient(errors.New("resource manager unavailable"))
		}
		inv.Out.SetRC(0)
		return nil
	}))
	if err := e.RegisterProcess(Chain("c4", 4)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(flakyProcess()); err != nil {
		t.Fatal(err)
	}
	return e
}

// firstIndex returns the position of the first record matching pred, or -1.
func firstIndex(recs []wal.Record, pred func(wal.Record) bool) int {
	for i, rec := range recs {
		if pred(rec) {
			return i
		}
	}
	return -1
}

// TestRecoverAllInterleavedFleet checks RecoverLadder over a shared
// group-commit log holding nine interleaved instances in every
// interesting crash posture: finished (chain and saga), crashed
// mid-chain, crashed mid-compensation (after the first cancellation, and
// with a cancellation started but unfinished), and crashed mid-retry
// (a started-without-finish witness under a RetryPolicy). Each instance
// runs solo first to fix its baseline and its surviving record prefix;
// the prefixes are interleaved round-robin, pushed through a real
// GroupCommitLog onto disk, repaired, and recovered on a fresh engine.
// Every recovered instance must finish with its baseline's trail and
// output.
func TestRecoverAllInterleavedFleet(t *testing.T) {
	// Clean travel baseline, used both for expectations and to find the
	// compensation-phase crash points.
	e0 := mixedFleetEngine(t)
	cleanTravel := &wal.MemLog{}
	travelBase, err := e0.CreateInstance("travel", nil, cleanTravel)
	if err == nil {
		err = travelBase.Start()
	}
	if err != nil || !travelBase.Finished() {
		t.Fatalf("travel baseline: %v", err)
	}
	travelRecs := cleanTravel.Records()
	// Crash right after the first compensation completed...
	cancelDone := firstIndex(travelRecs, func(r wal.Record) bool {
		return r.Type == wal.RecFinishedActivity && strings.Contains(r.Path, "cancel")
	})
	// ...and right after a compensation started but before it finished.
	cancelStarted := firstIndex(travelRecs, func(r wal.Record) bool {
		return r.Type == wal.RecStartedActivity && strings.Contains(r.Path, "cancel")
	})
	if cancelDone < 0 || cancelStarted < 0 {
		t.Fatalf("no compensation records in travel baseline (%d records)", len(travelRecs))
	}

	// Flaky baseline: crash right after the mid-retry activity's started
	// record, leaving a half-executed witness for an activity that was
	// inside its retry/backoff loop.
	cleanFlaky := &wal.MemLog{}
	flakyBase, err := e0.CreateInstance("Flaky", nil, cleanFlaky)
	if err == nil {
		err = flakyBase.Start()
	}
	if err != nil || !flakyBase.Finished() {
		t.Fatalf("flaky baseline: %v", err)
	}
	flakyStarted := firstIndex(cleanFlaky.Records(), func(r wal.Record) bool {
		return r.Type == wal.RecStartedActivity && strings.Contains(r.Path, "F2")
	})
	if flakyStarted < 0 {
		t.Fatal("no started record for F2 in flaky baseline")
	}

	cleanChain := &wal.MemLog{}
	chainBase, err := e0.CreateInstance("c4", nil, cleanChain)
	if err == nil {
		err = chainBase.Start()
	}
	if err != nil || !chainBase.Finished() {
		t.Fatalf("chain baseline: %v", err)
	}

	type member struct {
		process    string
		crashAfter int // 0 = run to completion
		baseline   *engine.Instance
	}
	fleet := []member{
		{"c4", 0, chainBase},
		{"c4", 0, chainBase},
		{"c4", 3, chainBase}, // crashed mid-chain
		{"travel", 0, travelBase},
		{"travel", cancelDone + 1, travelBase},    // first compensation done, rest pending
		{"travel", cancelStarted + 1, travelBase}, // compensation half-executed
		{"Flaky", 0, flakyBase},
		{"Flaky", flakyStarted + 1, flakyBase}, // mid-retry witness
		{"c4", 0, chainBase},
	}

	// Solo runs on one engine (unique instance IDs) fix each member's
	// surviving records and expected end state.
	e1 := mixedFleetEngine(t)
	perInst := make(map[string][]wal.Record)
	expect := make(map[string]*engine.InstanceSnapshot)
	expectTrail := make(map[string]string)
	expectOut := make(map[string]*model.Container)
	var order []string
	for i, m := range fleet {
		log := &wal.MemLog{CrashAfter: m.crashAfter}
		inst, err := e1.CreateInstance(m.process, nil, log)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		err = inst.Start()
		if m.crashAfter == 0 {
			if err != nil || !inst.Finished() {
				t.Fatalf("member %d (%s): %v", i, m.process, err)
			}
		} else if !errors.Is(err, wal.ErrCrash) {
			t.Fatalf("member %d (%s): want crash, got %v", i, m.process, err)
		}
		perInst[inst.ID()] = log.Records()
		expect[inst.ID()] = m.baseline.Snapshot()
		expectTrail[inst.ID()] = fmt.Sprint(trailStrings(m.baseline))
		expectOut[inst.ID()] = m.baseline.Output()
		order = append(order, inst.ID())
	}

	// Interleave round-robin and push through a real group-commit log so
	// the on-disk file is what a shared fleet WAL looks like.
	path := filepath.Join(t.TempDir(), "fleet.wal")
	flog, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := wal.NewGroupCommitLog(flog)
	for i := 0; ; i++ {
		wrote := false
		for _, id := range order {
			if i < len(perInst[id]) {
				if err := g.Append(perInst[id][i]); err != nil {
					t.Fatal(err)
				}
				wrote = true
			}
		}
		if !wrote {
			break
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := mixedFleetEngine(t)
	insts, h, err := engine.RecoverLadder(e2, wal.Ladder{Path: path}, nil)
	if err != nil || h.Torn != 0 {
		t.Fatalf("recovery: %v (%+v)", err, h)
	}
	if len(insts) != len(fleet) {
		t.Fatalf("recovered %d instances, want %d", len(insts), len(fleet))
	}
	for _, inst := range insts {
		want, ok := expect[inst.ID()]
		if !ok {
			t.Fatalf("recovered unknown instance %s", inst.ID())
		}
		if !inst.Finished() {
			t.Fatalf("%s not finished after recovery: %v", inst.ID(), inst.Err())
		}
		if got := fmt.Sprint(trailStrings(inst)); got != expectTrail[inst.ID()] {
			t.Fatalf("%s trail diverges:\ngot:  %s\nwant: %s", inst.ID(), got, expectTrail[inst.ID()])
		}
		if !inst.Output().Equal(expectOut[inst.ID()]) {
			t.Fatalf("%s output diverges from baseline", inst.ID())
		}
		got := inst.Snapshot()
		// The IDs differ between baseline and fleet member; compare the
		// rest of the snapshot.
		got.ID = want.ID
		if !got.Equal(want) {
			t.Fatalf("%s snapshot diverges:\n%+v\nvs\n%+v", inst.ID(), got, want)
		}
	}
}
