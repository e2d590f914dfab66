package engine

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/org"
)

func approvalEngine(t *testing.T) *Engine {
	t.Helper()
	dir := org.NewDirectory()
	if err := dir.AddPerson(org.Person{Name: "alice", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	e := New(WithOrganization(dir), WithClock(func() int64 { return 0 }))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Approval")
	p.Activities = []*model.Activity{
		{Name: "approve", Kind: model.KindProgram, Program: "ok",
			Start: model.StartManual, Staff: model.Staff{Role: "clerk"}},
		{Name: "ship", Kind: model.KindProgram, Program: "ok"},
		{Name: "reject_letter", Kind: model.KindProgram, Program: "ok"},
	}
	p.Control = []*model.ControlConnector{
		{From: "approve", To: "ship", Condition: expr.MustParse("RC = 0")},
		{From: "approve", To: "reject_letter", Condition: expr.MustParse("RC <> 0")},
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestForceFinishApproves(t *testing.T) {
	e := approvalEngine(t)
	inst, err := e.CreateInstance("Approval", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if inst.PendingWork() != 1 {
		t.Fatal("no pending work")
	}
	// A supervisor forces the approval through with RC=0.
	if err := inst.ForceFinish("approve", 0); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	// The worklist item is gone and the RC=0 branch ran.
	if len(e.Worklists().List("alice")) != 0 {
		t.Fatal("work item not withdrawn")
	}
	runs := inst.ProgramRuns()
	if len(runs) != 1 || runs[0].Path != "ship" {
		t.Fatalf("runs = %+v (approve must not run its program)", runs)
	}
	var sawForced bool
	for _, ev := range inst.Trail() {
		if ev.Kind == EvForced && ev.Path == "approve" {
			sawForced = true
		}
	}
	if !sawForced {
		t.Fatal("no forced event")
	}
}

func TestForceFinishRejectBranch(t *testing.T) {
	e := approvalEngine(t)
	inst, _ := e.CreateInstance("Approval", nil, nil)
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	// Forcing with a non-zero RC drives the rejection branch.
	if err := inst.ForceFinish("approve", 1); err != nil {
		t.Fatal(err)
	}
	runs := inst.ProgramRuns()
	if len(runs) != 1 || runs[0].Path != "reject_letter" {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestForceFinishErrors(t *testing.T) {
	e := approvalEngine(t)
	inst, _ := e.CreateInstance("Approval", nil, nil)
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.ForceFinish("ghost", 0); err == nil {
		t.Error("unknown path accepted")
	}
	if err := inst.ForceFinish("ship", 0); err == nil {
		t.Error("non-manual activity accepted")
	}
	if err := inst.ForceFinish("approve", 0); err != nil {
		t.Fatal(err)
	}
	// Second force on the same (now terminated) activity fails.
	if err := inst.ForceFinish("approve", 0); err == nil {
		t.Error("terminated activity accepted")
	}
}

func TestCancelInstance(t *testing.T) {
	e := approvalEngine(t)
	inst, _ := e.CreateInstance("Approval", nil, nil)
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Cancel(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("canceled instance not finished")
	}
	if !Released(inst) {
		t.Fatal("canceled instance kept its containers, queue or replay index")
	}
	if inst.PendingWork() != 0 || len(e.Worklists().List("alice")) != 0 {
		t.Fatal("work items survived cancellation")
	}
	// Nothing executed.
	if len(inst.ProgramRuns()) != 0 {
		t.Fatalf("programs ran: %+v", inst.ProgramRuns())
	}
	var sawCancel bool
	for _, ev := range inst.Trail() {
		if ev.Kind == EvCanceled {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatal("no canceled event")
	}
	// Double cancel and post-finish cancel fail.
	if err := inst.Cancel(); err == nil {
		t.Error("double cancel accepted")
	}
	// Selecting work after cancellation fails (item gone).
	if err := inst.SelectWork("alice", 1); err == nil {
		t.Error("select after cancel accepted")
	}
}

func TestCancelBeforeStart(t *testing.T) {
	e := approvalEngine(t)
	inst, _ := e.CreateInstance("Approval", nil, nil)
	if err := inst.Cancel(); err == nil {
		t.Error("cancel before start accepted")
	}
}

// TestSelectWorkWrongInstancePreservesItem: selecting a work item through
// the wrong instance handle must fail without consuming the item (the
// other instance can still proceed).
func TestSelectWorkWrongInstancePreservesItem(t *testing.T) {
	e := approvalEngine(t)
	i1, _ := e.CreateInstance("Approval", nil, nil)
	i2, _ := e.CreateInstance("Approval", nil, nil)
	if err := i1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := i2.Start(); err != nil {
		t.Fatal(err)
	}
	items := e.Worklists().List("alice")
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	// items[0] belongs to i1; select it through i2.
	var i1Item int64
	for _, it := range items {
		if it.Instance == i1.ID() {
			i1Item = it.ID
		}
	}
	if err := i2.SelectWork("alice", i1Item); err == nil {
		t.Fatal("cross-instance selection accepted")
	}
	// The item survived and the right instance can still select it.
	if len(e.Worklists().List("alice")) != 2 {
		t.Fatal("cross-instance selection destroyed the work item")
	}
	if err := i1.SelectWork("alice", i1Item); err != nil {
		t.Fatal(err)
	}
	if !i1.Finished() {
		t.Fatal("i1 not finished")
	}
}

// TestSelectWorkUnknownActivity pins the error path of SelectWork for a
// work item that names this instance but no activity in it — the item was
// posted to the shared worklists by someone other than the navigator.
// SelectWork used to format the state of a nil activity there and panic.
func TestSelectWorkUnknownActivity(t *testing.T) {
	e := approvalEngine(t)
	inst, err := e.CreateInstance("Approval", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	stray, err := e.Worklists().Post(org.WorkItem{Activity: "no/such#0/activity", Instance: inst.ID()}, "clerk", "")
	if err != nil {
		t.Fatal(err)
	}
	err = inst.SelectWork("alice", stray.ID)
	if err == nil || !strings.Contains(err.Error(), "no/such#0/activity") {
		t.Fatalf("SelectWork on a stray item = %v, want an error naming the activity", err)
	}
	if inst.PendingWork() != 1 || inst.Err() != nil {
		t.Fatalf("stray item disturbed the instance: pending=%d err=%v", inst.PendingWork(), inst.Err())
	}
	// The real item is still selectable.
	if err := inst.SelectWork("alice", e.Worklists().List("alice")[0].ID); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("not finished after selecting the posted item")
	}
}
