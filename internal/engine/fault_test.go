package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// oneShotProcess builds a single program activity carrying the given
// retry policy and deadline.
func oneShotProcess(name, prog string, rp *model.RetryPolicy, deadlineMS int64) *model.Process {
	p := model.NewProcess(name)
	p.Activities = []*model.Activity{{
		Name: "A", Kind: model.KindProgram, Program: prog,
		Retry: rp, DeadlineMS: deadlineMS,
	}}
	return p
}

func TestPanicIsolation(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProgram("panic", ProgramFunc(func(inv *Invocation) error {
		panic("kaboom")
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(oneShotProcess("Panics", "panic", nil, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(chainProcess("Healthy")); err != nil {
		t.Fatal(err)
	}

	inst, err := e.CreateInstance("Panics", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Start() // must return, not unwind the test
	if err == nil {
		t.Fatal("panicking program did not fail the instance")
	}
	af := inst.Failure()
	if af == nil {
		t.Fatalf("Failure() = nil, Err() = %v", inst.Err())
	}
	var pe *PanicError
	if !errors.As(af.Cause, &pe) || fmt.Sprint(pe.Value) != "kaboom" {
		t.Fatalf("cause = %v, want PanicError(kaboom)", af.Cause)
	}
	if pe.Stack == "" {
		t.Error("panic stack not captured")
	}
	if af.Attempts != 1 {
		t.Errorf("panic retried: attempts = %d", af.Attempts) // panics are fatal
	}

	// The failure is visible on the monitor with its cause...
	var row *InstanceInfo
	infos := e.Instances()
	for i := range infos {
		if infos[i].ID == inst.ID() {
			row = &infos[i]
		}
	}
	if row == nil || row.Status != "failed" || !strings.Contains(row.Cause, "kaboom") {
		t.Fatalf("monitor row = %+v", row)
	}
	// ...and on the audit trail.
	var failed bool
	for _, ev := range inst.Trail() {
		if ev.Kind == EvFailed && strings.Contains(ev.Cause, "kaboom") {
			failed = true
		}
	}
	if !failed {
		t.Error("no EvFailed event on the trail")
	}

	// Sibling instances and the engine itself keep working.
	sibling := runToEnd(t, e, "Healthy", nil)
	if !sibling.Finished() {
		t.Fatal("engine unusable after a program panic")
	}
}

func TestDeadlineFailsActivity(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProgram("hang", ProgramFunc(func(inv *Invocation) error {
		time.Sleep(200 * time.Millisecond)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(oneShotProcess("Hangs", "hang", nil, 10)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Hangs", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("deadline miss did not fail the instance")
	}
	af := inst.Failure()
	if af == nil || !errors.Is(af.Cause, ErrDeadlineExceeded) {
		t.Fatalf("failure = %v, want deadline exceeded", inst.Err())
	}
	if status, cause := inst.StatusInfo(); status != "failed" || !strings.Contains(cause, "deadline") {
		t.Fatalf("status = %q cause = %q", status, cause)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	var slept []time.Duration
	e := newTestEngine(t, WithSleep(func(d time.Duration) { slept = append(slept, d) }))
	var attempts []int
	if err := e.RegisterProgram("flaky", ProgramFunc(func(inv *Invocation) error {
		attempts = append(attempts, inv.Attempt)
		if inv.Attempt < 3 {
			return Transient(errors.New("resource manager unavailable"))
		}
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	rp := &model.RetryPolicy{MaxAttempts: 3, BackoffMS: 5}
	if err := e.RegisterProcess(oneShotProcess("Flaky", "flaky", rp, 0)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Flaky", nil)
	if !inst.Finished() {
		t.Fatalf("retried instance not finished: %v", inst.Err())
	}
	if fmt.Sprint(attempts) != "[1 2 3]" {
		t.Fatalf("attempts = %v", attempts)
	}
	// Exponential backoff: base 5ms, doubled before the third attempt.
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoff = %v, want %v", slept, want)
	}
}

func TestTransientRetryExhausted(t *testing.T) {
	e := newTestEngine(t, WithSleep(func(time.Duration) {}))
	if err := e.RegisterProgram("down", ProgramFunc(func(inv *Invocation) error {
		return Transient(errors.New("still down"))
	})); err != nil {
		t.Fatal(err)
	}
	rp := &model.RetryPolicy{MaxAttempts: 2, BackoffMS: 1}
	if err := e.RegisterProcess(oneShotProcess("Down", "down", rp, 0)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Down", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("exhausted retries did not fail the instance")
	}
	af := inst.Failure()
	if af == nil || af.Attempts != 2 || !isTransient(af.Cause) {
		t.Fatalf("failure = %+v", af)
	}
	if !strings.Contains(af.Error(), "after 2 attempts") {
		t.Fatalf("message = %q", af.Error())
	}
}

func TestFatalErrorNotRetried(t *testing.T) {
	e := newTestEngine(t, WithSleep(func(time.Duration) {
		t.Error("backoff slept for a fatal error")
	}))
	calls := 0
	if err := e.RegisterProgram("fatal", ProgramFunc(func(inv *Invocation) error {
		calls++
		return errors.New("config missing") // not wrapped with Transient
	})); err != nil {
		t.Fatal(err)
	}
	rp := &model.RetryPolicy{MaxAttempts: 5, BackoffMS: 1}
	if err := e.RegisterProcess(oneShotProcess("Fatal", "fatal", rp, 0)); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Fatal", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("fatal error did not fail the instance")
	}
	if calls != 1 {
		t.Fatalf("fatal error invoked %d times", calls)
	}
	if af := inst.Failure(); af == nil || af.Attempts != 1 {
		t.Fatalf("failure = %+v", af)
	}
}

func TestRetriedAttemptGetsFreshOutput(t *testing.T) {
	e := newTestEngine(t, WithSleep(func(time.Duration) {}))
	if err := e.RegisterProgram("dirty", ProgramFunc(func(inv *Invocation) error {
		if inv.Attempt == 1 {
			// Scribble on the output, then fail: the retry must not see it.
			inv.Out.SetRC(99)
			return Transient(errors.New("torn"))
		}
		if rc := inv.Out.RC(); rc != 0 {
			return fmt.Errorf("stale output leaked into retry: RC=%d", rc)
		}
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	rp := &model.RetryPolicy{MaxAttempts: 2}
	if err := e.RegisterProcess(oneShotProcess("Dirty", "dirty", rp, 0)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Dirty", nil)
	if !inst.Finished() {
		t.Fatalf("instance failed: %v", inst.Err())
	}
}

// TestConcurrentPanicIsolation drives a panicking branch through the
// worker pool: the instance fails with the panic recorded, other branches
// drain, and a later instance on the same engine still completes. Run
// under -race this also checks the completion plumbing.
func TestConcurrentPanicIsolation(t *testing.T) {
	e := New(WithConcurrency(4))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		time.Sleep(5 * time.Millisecond)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	p := fanProcess(4)
	p.Activities[2].Program = "panicky" // one branch of the fan
	if err := e.RegisterProgram("panicky", ProgramFunc(func(inv *Invocation) error {
		panic("worker down")
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Fan", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("panicking branch did not fail the instance")
	}
	af := inst.Failure()
	var pe *PanicError
	if af == nil || !errors.As(af.Cause, &pe) {
		t.Fatalf("failure = %v", inst.Err())
	}

	// The pool and engine survive: a clean fan on the same engine finishes.
	p2 := fanProcess(4)
	p2.Name = "Fan2"
	if err := e.RegisterProcess(p2); err != nil {
		t.Fatal(err)
	}
	inst2, err := e.CreateInstance("Fan2", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst2.Start(); err != nil || !inst2.Finished() {
		t.Fatalf("engine unusable after worker panic: %v", err)
	}
}

// TestMonitorDuringConcurrentRun polls Engine.Instances from another
// goroutine while instances execute on a worker pool; under -race this
// fails if monitor reads race with navigation writes.
func TestMonitorDuringConcurrentRun(t *testing.T) {
	e := New(WithConcurrency(3))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		time.Sleep(time.Millisecond)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(fanProcess(6)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, info := range e.Instances() {
					if info.Status == "failed" {
						t.Errorf("unexpected failure: %+v", info)
					}
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		inst, err := e.CreateInstance("Fan", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil || !inst.Finished() {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
