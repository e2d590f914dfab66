package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/wal"
)

// countingProgram counts real executions per path so recovery tests can
// verify which activities were replayed from the log vs. re-executed.
// Fleet tests invoke it from parallel workers, hence the mutex.
type countingProgram struct {
	mu   sync.Mutex
	runs map[string]int
	rc   func(path string) int64
}

func (c *countingProgram) Run(inv *Invocation) error {
	c.mu.Lock()
	c.runs[inv.Path]++
	c.mu.Unlock()
	rc := int64(0)
	if c.rc != nil {
		rc = c.rc(inv.Path)
	}
	inv.Out.SetRC(rc)
	return nil
}

// recoveryProcess builds a 5-step chain with a block in the middle so the
// crash sweep covers program, block and data-flow records.
func recoveryProcess() *model.Process {
	p := model.NewProcess("Rec")
	if err := p.Types.Register(&model.StructType{Name: "States", Members: []model.Member{
		{Name: "State_1", Basic: model.Long, Default: expr.Int(-1)},
	}}); err != nil {
		panic(err)
	}
	p.OutputType = "States"
	inner := &model.Graph{
		OutputType: "States",
		Activities: []*model.Activity{
			{Name: "m1", Kind: model.KindProgram, Program: "count"},
			{Name: "m2", Kind: model.KindProgram, Program: "count"},
		},
		Control: []*model.ControlConnector{{From: "m1", To: "m2", Condition: expr.MustParse("RC = 0")}},
		Data: []*model.DataConnector{
			{From: "m2", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "State_1"}}},
		},
	}
	p.Activities = []*model.Activity{
		{Name: "A", Kind: model.KindProgram, Program: "count"},
		{Name: "B", Kind: model.KindBlock, Block: inner, OutputType: "States"},
		{Name: "C", Kind: model.KindProgram, Program: "count"},
	}
	p.Control = []*model.ControlConnector{
		{From: "A", To: "B", Condition: expr.MustParse("RC = 0")},
		{From: "B", To: "C", Condition: expr.MustParse("State_1 = 0")},
	}
	p.Data = []*model.DataConnector{
		{From: "B", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "State_1", ToPath: "State_1"}}},
	}
	return p
}

func newRecoveryEngine(t *testing.T) (*Engine, *countingProgram) {
	t.Helper()
	e := New()
	cp := &countingProgram{runs: map[string]int{}}
	if err := e.RegisterProgram("count", cp); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(recoveryProcess()); err != nil {
		t.Fatal(err)
	}
	return e, cp
}

// baselineTrail runs the process crash-free and returns the trail strings.
func baselineTrail(t *testing.T) []string {
	t.Helper()
	e, _ := newRecoveryEngine(t)
	inst, err := e.CreateInstance("Rec", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	return trailStrings(inst)
}

func trailStrings(inst *Instance) []string {
	var out []string
	for _, ev := range inst.Trail() {
		out = append(out, ev.String())
	}
	return out
}

// TestRecoverySweep is experiment E4: crash the instance at every possible
// log point, recover, and require the resumed execution to complete with an
// audit trail identical to the crash-free run.
func TestRecoverySweep(t *testing.T) {
	want := baselineTrail(t)

	// Determine the total number of log records in a clean run.
	e0, _ := newRecoveryEngine(t)
	cleanLog := &wal.MemLog{}
	inst0, err := e0.CreateInstance("Rec", nil, cleanLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst0.Start(); err != nil {
		t.Fatal(err)
	}
	total := cleanLog.Len()
	if total < 8 {
		t.Fatalf("expected a substantial log, got %d records", total)
	}

	for crashAt := 1; crashAt < total; crashAt++ {
		t.Run(fmt.Sprintf("crash_after_%d", crashAt), func(t *testing.T) {
			e, _ := newRecoveryEngine(t)
			log := &wal.MemLog{CrashAfter: crashAt}
			inst, err := e.CreateInstance("Rec", nil, log)
			if err != nil {
				t.Fatal(err)
			}
			err = inst.Start()
			if !errors.Is(err, wal.ErrCrash) {
				t.Fatalf("expected injected crash, got %v", err)
			}
			if inst.Finished() {
				t.Fatal("crashed instance reported finished")
			}
			// Recover on a fresh engine (simulating a restarted server).
			e2, cp2 := newRecoveryEngine(t)
			rec, err := Recover(e2, log.Records(), nil)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !rec.Finished() {
				t.Fatal("recovered instance did not finish")
			}
			got := trailStrings(rec)
			if len(got) != len(want) {
				t.Fatalf("trail length %d != baseline %d\ngot: %v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trail[%d] = %q, want %q", i, got[i], want[i])
				}
			}
			// Logged completions must not re-execute; the rest re-run
			// exactly once.
			for path, n := range cp2.runs {
				if n != 1 {
					t.Errorf("activity %s executed %d times after recovery", path, n)
				}
			}
			if rec.Output().MustGet("State_1").AsInt() != 0 {
				t.Error("recovered output wrong")
			}
			// Recovery can itself be recovered: the resumed run logs the
			// whole execution afresh, so a crash after any of its records
			// recovers to the crash-free trail and output again.
			for j := 1; ; j++ {
				e3, _ := newRecoveryEngine(t)
				relog := &wal.MemLog{CrashAfter: j}
				_, crash := Recover(e3, log.Records(), relog)
				if crash == nil {
					break // the resumed run logged fewer than j records
				}
				e4, _ := newRecoveryEngine(t)
				again, err := Recover(e4, relog.Records(), nil)
				if !errors.Is(crash, wal.ErrCrash) || err != nil || !again.Finished() || !reflect.DeepEqual(trailStrings(again), want) || again.Output().MustGet("State_1").AsInt() != 0 {
					t.Fatalf("recovery crashed after %d records (%v), then recovered: %v; want the crash-free run", j, crash, err)
				}
			}
		})
	}
}

// TestRecoveryReusesLoggedOutputs verifies that activities whose completion
// was logged are not re-executed (their programs never run again).
func TestRecoveryReusesLoggedOutputs(t *testing.T) {
	e, _ := newRecoveryEngine(t)
	// Crash after A completed (record 1 = created, 2 = A started, 3 = A
	// finished).
	log := &wal.MemLog{CrashAfter: 3}
	inst, err := e.CreateInstance("Rec", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); !errors.Is(err, wal.ErrCrash) {
		t.Fatalf("want crash, got %v", err)
	}

	e2, cp2 := newRecoveryEngine(t)
	rec, err := Recover(e2, log.Records(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished() {
		t.Fatal("not finished")
	}
	if cp2.runs["A"] != 0 {
		t.Errorf("A re-executed %d times despite logged completion", cp2.runs["A"])
	}
	if cp2.runs["B#0/m1"] != 1 || cp2.runs["C"] != 1 {
		t.Errorf("unlogged activities not re-executed: %v", cp2.runs)
	}
}

// TestRecoveryRerunsHalfExecuted verifies the paper's caveat: an activity
// that started but never logged completion is rescheduled from the
// beginning.
func TestRecoveryRerunsHalfExecuted(t *testing.T) {
	e, cp := newRecoveryEngine(t)
	// Record 4 is "B#0/m1 started": crash right after it, i.e. mid-flight.
	log := &wal.MemLog{CrashAfter: 4}
	inst, err := e.CreateInstance("Rec", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); !errors.Is(err, wal.ErrCrash) {
		t.Fatalf("want crash, got %v", err)
	}
	if cp.runs["B#0/m1"] != 1 {
		t.Fatalf("m1 should have executed before the crash: %v", cp.runs)
	}

	e2, cp2 := newRecoveryEngine(t)
	rec, err := Recover(e2, log.Records(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished() {
		t.Fatal("not finished")
	}
	if cp2.runs["B#0/m1"] != 1 {
		t.Errorf("half-executed m1 not re-run from the beginning: %v", cp2.runs)
	}
}

// TestRecoveryThroughFileLog exercises the file-backed log end to end.
func TestRecoveryThroughFileLog(t *testing.T) {
	path := t.TempDir() + "/rec.wal"
	e, _ := newRecoveryEngine(t)
	flog, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Rec", nil, flog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := wal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, cp2 := newRecoveryEngine(t)
	rec, err := Recover(e2, records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished() {
		t.Fatal("not finished")
	}
	// Everything was logged: nothing re-executes.
	for path, n := range cp2.runs {
		t.Errorf("unexpected re-execution of %s (%d)", path, n)
	}
}

// TestRecoveryAfterTornTail kills the server beneath a durable file log
// inside the instance's sixth record, repairs the torn file (truncate-and-
// resume), and recovers from the surviving prefix: the crash-free trail and
// output must be reproduced exactly.
func TestRecoveryAfterTornTail(t *testing.T) {
	want := baselineTrail(t)
	path := t.TempDir() + "/torn.wal"

	// run executes the instance over a file system that dies at byte b (0:
	// never).
	run := func(b int64) error {
		e, _ := newRecoveryEngine(t)
		flog, err := wal.OpenFileLog(path, wal.WithFsync(), wal.WithFS(wal.NewFaultFS(wal.FaultCrash, b)))
		if err != nil {
			t.Fatal(err)
		}
		defer flog.Close()
		inst, err := e.CreateInstance("Rec", nil, flog)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Start()
	}
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	ends, err := wal.FrameEnds(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(wal.CrashCut(ends, 5, true)); !errors.Is(err, wal.ErrCrash) { // torn 6th record lands on disk
		t.Fatalf("want crash, got %v", err)
	}

	records, truncated, err := wal.RepairFile(path)
	if err != nil || len(records) != 5 || truncated == 0 {
		t.Fatalf("repair: %d records, %d truncated, %v", len(records), truncated, err)
	}
	e2, _ := newRecoveryEngine(t)
	rec, err := Recover(e2, records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished() {
		t.Fatal("not finished")
	}
	got := trailStrings(rec)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trail after torn-tail recovery:\ngot:  %v\nwant: %v", got, want)
	}
	if rec.Output().MustGet("State_1").AsInt() != 0 {
		t.Error("recovered output wrong")
	}
}

// TestRecoveryFromCompactedLog: compaction must not change what recovery
// reconstructs.
func TestRecoveryFromCompactedLog(t *testing.T) {
	e, _ := newRecoveryEngine(t)
	log := &wal.MemLog{CrashAfter: 7}
	inst, err := e.CreateInstance("Rec", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); !errors.Is(err, wal.ErrCrash) {
		t.Fatalf("want crash, got %v", err)
	}
	full := log.Records()
	compacted := wal.Compact(full)
	if len(compacted) >= len(full) {
		t.Fatalf("compaction removed nothing: %d -> %d", len(full), len(compacted))
	}
	eA, _ := newRecoveryEngine(t)
	recA, err := Recover(eA, full, nil)
	if err != nil || !recA.Finished() {
		t.Fatalf("full recover: %v", err)
	}
	eB, _ := newRecoveryEngine(t)
	recB, err := Recover(eB, compacted, nil)
	if err != nil || !recB.Finished() {
		t.Fatalf("compacted recover: %v", err)
	}
	a, b := trailStrings(recA), trailStrings(recB)
	if len(a) != len(b) {
		t.Fatalf("trails differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trail[%d]: %q vs %q", i, a[i], b[i])
		}
	}
	if !recA.Output().Equal(recB.Output()) {
		t.Fatal("outputs differ")
	}
}

func TestRecoverErrors(t *testing.T) {
	e, _ := newRecoveryEngine(t)
	if _, err := Recover(e, nil, nil); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := Recover(e, []wal.Record{{Type: wal.RecDone, Instance: "x"}}, nil); err == nil {
		t.Error("log without created record accepted")
	}
	if _, err := Recover(e, []wal.Record{{Type: wal.RecCreated, Instance: "x", Process: "Ghost"}}, nil); err == nil {
		t.Error("unknown process accepted")
	}
	recs := []wal.Record{
		{Type: wal.RecCreated, Instance: "x", Process: "Rec", Values: wal.ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
		{Type: wal.RecFinishedActivity, Instance: "other", Path: "A", Values: wal.ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
	}
	if _, err := Recover(e, recs, nil); err == nil {
		t.Error("mixed-instance log accepted")
	}
}
