package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/org"
)

// collectEvents drains a subscription after the run has completed.
func collectEvents(sub *obs.Subscription, bus *obs.Bus) []obs.Event {
	bus.Unsubscribe(sub)
	var out []obs.Event
	for ev := range sub.Events() {
		out = append(out, ev)
	}
	return out
}

func kindsOf(evs []obs.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func TestBusPublishesInstanceLifecycle(t *testing.T) {
	bus := obs.NewBus()
	sub := bus.Subscribe(256)
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus))
	if e.Bus() != bus {
		t.Fatal("Bus() accessor")
	}
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Chain", nil)

	evs := collectEvents(sub, bus)
	kinds := kindsOf(evs)
	want := []string{
		obs.EvInstanceCreated,
		obs.EvInstanceStarted,
		obs.EvActivityDispatch, obs.EvActivityFinished, // A
		obs.EvActivityDispatch, obs.EvActivityFinished, // B
		obs.EvActivityDispatch, obs.EvActivityFinished, // C
		obs.EvInstanceFinished,
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds:\n got %v\nwant %v", kinds, want)
	}
	if evs[0].Program != "Chain" {
		t.Fatalf("instance.created program = %q, want template name", evs[0].Program)
	}
	prevAt := int64(0)
	for i, ev := range evs {
		if ev.Instance != inst.ID() {
			t.Fatalf("event %d instance = %q, want %q", i, ev.Instance, inst.ID())
		}
		if ev.At < prevAt {
			t.Fatalf("event %d timestamp went backwards: %d < %d", i, ev.At, prevAt)
		}
		prevAt = ev.At
	}
	// Latency attribution: dispatches carry the queue wait since the
	// activity became ready (the subscriber was attached before Start, so
	// every ready was stamped), finishes the program wall time; both are
	// non-negative and the finish of A names its path and program.
	fin := evs[3]
	if fin.Path != "A" || fin.Program != "ok" || fin.DurNs < 0 || fin.RC != 0 {
		t.Fatalf("activity.finished = %+v", fin)
	}
	if disp := evs[2]; disp.Path != "A" {
		t.Fatalf("activity.dispatch = %+v", disp)
	}
	waited := 0
	for _, ev := range evs {
		if ev.Kind != obs.EvActivityDispatch {
			continue
		}
		if ev.DurNs < 0 {
			t.Fatalf("dispatch of %s carries a negative wait %d", ev.Path, ev.DurNs)
		}
		if ev.DurNs > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("no dispatch carries a queue wait")
	}
	if bus.Dropped() != 0 {
		t.Fatalf("dropped = %d", bus.Dropped())
	}
}

// TestReadyStampOnlyWhileBusListens checks that the ready stamp is taken
// only while the bus is active, and cleared otherwise: a manual activity
// that loops while nothing listens is dispatched, to a subscriber that
// attached in between, without the wait its first iteration began.
func TestReadyStampOnlyWhileBusListens(t *testing.T) {
	dir := org.NewDirectory()
	if err := dir.AddPerson(org.Person{Name: "alice", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	e := New(WithOrganization(dir), WithMetrics(obs.NewRegistry()), WithBus(bus))
	if err := e.RegisterProgram("flaky", &flakyProgram{failures: map[string]int{"M": 1}}); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Loop")
	p.Activities = []*model.Activity{{
		Name: "M", Kind: model.KindProgram, Program: "flaky",
		Start: model.StartManual, Staff: model.Staff{Role: "clerk"},
		Exit: expr.MustParse("RC = 0"),
	}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	var heard []obs.Event
	detach := bus.Attach(func(ev obs.Event) { heard = append(heard, ev) })
	inst, err := e.CreateInstance("Loop", nil, nil)
	if err == nil {
		err = inst.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	m := inst.lookup("M")
	if m.readyNs == 0 {
		t.Fatal("no ready stamp while the bus listened")
	}
	detach()
	selectM := func() {
		t.Helper()
		items := e.Worklists().List("alice")
		if len(items) != 1 {
			t.Fatalf("alice's worklist holds %d items, want 1", len(items))
		}
		if err := inst.SelectWork("alice", items[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	selectM() // iteration 0 aborts, so M loops and is ready again
	if m.iter != 1 || m.readyNs != 0 {
		t.Fatalf("after a loop with nothing listening: iter %d, readyNs %d; want 1, 0", m.iter, m.readyNs)
	}
	heard = nil
	defer bus.Attach(func(ev obs.Event) { heard = append(heard, ev) })()
	selectM()
	if !inst.Finished() {
		t.Fatal("not finished after the second iteration")
	}
	dispatches := 0
	for _, ev := range heard {
		if ev.Kind == obs.EvActivityDispatch {
			dispatches++
			if ev.DurNs != 0 {
				t.Fatalf("dispatch of iteration %d carries a stale wait of %d ns", ev.Iter, ev.DurNs)
			}
		}
	}
	if dispatches != 1 {
		t.Fatalf("heard %d dispatches of the second iteration, want 1", dispatches)
	}
}

func TestBusPublishesRetryAndLoop(t *testing.T) {
	bus := obs.NewBus()
	sub := bus.Subscribe(256)
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus),
		WithSleep(func(d time.Duration) {}))
	fails := 2
	if err := e.RegisterProgram("flaky", ProgramFunc(func(inv *Invocation) error {
		if fails > 0 {
			fails--
			return Transient(fmt.Errorf("try again"))
		}
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(oneShotProcess("Flaky", "flaky",
		&model.RetryPolicy{MaxAttempts: 5, BackoffMS: 1}, 0)); err != nil {
		t.Fatal(err)
	}
	runToEnd(t, e, "Flaky", nil)

	var retries []obs.Event
	for _, ev := range collectEvents(sub, bus) {
		if ev.Kind == obs.EvActivityRetry {
			retries = append(retries, ev)
		}
	}
	if len(retries) != 2 {
		t.Fatalf("retry events = %d, want 2", len(retries))
	}
	if retries[0].N != 1 || retries[1].N != 2 {
		t.Fatalf("retry attempts = %d, %d", retries[0].N, retries[1].N)
	}
	if retries[0].DurNs <= 0 || retries[1].DurNs != 2*retries[0].DurNs {
		t.Fatalf("retry backoff = %d, %d (want exponential)", retries[0].DurNs, retries[1].DurNs)
	}
	if !strings.Contains(retries[0].Cause, "try again") {
		t.Fatalf("retry cause = %q", retries[0].Cause)
	}
}

// TestFlightRecorderCapturesForcedFailure is the PR's forced-failure
// acceptance check: after a fatal program failure, the flight recorder's
// JSONL dump must hold the failing instance's last events, ending in the
// instance.failed record (the bus mirror of the trail's EvFailed) with
// its cause.
func TestFlightRecorderCapturesForcedFailure(t *testing.T) {
	bus := obs.NewBus()
	rec := obs.NewRecorder(64)
	detach := bus.Attach(rec.Record)
	defer detach()
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus))
	if err := e.RegisterProcess(chainProcess("Doomed", "ok", "boom")); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Doomed", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("instance did not fail")
	}

	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var dumped []obs.Event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		dumped = append(dumped, ev)
	}
	if len(dumped) == 0 {
		t.Fatal("empty dump")
	}
	// The tail must belong to the failing instance and include the
	// dispatch of the failing activity followed by instance.failed.
	last := dumped[len(dumped)-1]
	if last.Kind != obs.EvInstanceFailed || last.Instance != inst.ID() {
		t.Fatalf("last dumped event = %+v, want instance.failed for %s", last, inst.ID())
	}
	if last.Path != "B" || last.Program != "boom" || !strings.Contains(last.Cause, "infrastructure failure") {
		t.Fatalf("failure event lost its attribution: %+v", last)
	}
	var sawDispatchB bool
	for _, ev := range dumped {
		if ev.Kind == obs.EvActivityDispatch && ev.Path == "B" && ev.Instance == inst.ID() {
			sawDispatchB = true
		}
	}
	if !sawDispatchB {
		t.Fatal("dump lacks the failing activity's dispatch event")
	}
}

func TestBusPublishesCompensationEntry(t *testing.T) {
	bus := obs.NewBus()
	sub := bus.Subscribe(256)
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus))
	p := model.NewProcess("Saga")
	comp := &model.Graph{Activities: []*model.Activity{
		{Name: "undo", Kind: model.KindProgram, Program: "ok"},
	}}
	p.Activities = []*model.Activity{
		{Name: "Forward", Kind: model.KindProgram, Program: "ok"},
		{Name: "Compensation", Kind: model.KindBlock, Block: comp},
	}
	p.Control = []*model.ControlConnector{{From: "Forward", To: "Compensation"}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	runToEnd(t, e, "Saga", nil)
	var entered []obs.Event
	for _, ev := range collectEvents(sub, bus) {
		if ev.Kind == obs.EvCompensation {
			entered = append(entered, ev)
		}
	}
	if len(entered) != 1 || entered[0].Path != "Compensation" {
		t.Fatalf("compensation.entered events = %+v", entered)
	}
}

// TestFleetPublishWithSubscriberChurn runs a fleet while goroutines
// subscribe and unsubscribe aggressively — the engine-level companion of
// the obs-level churn test, exercised under -race by the CI race job.
func TestFleetPublishWithSubscriberChurn(t *testing.T) {
	bus := obs.NewBus()
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := bus.Subscribe(4)
				for i := 0; i < 8; i++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				bus.Unsubscribe(sub)
			}
		}()
	}
	res := runOneShard(t, e, FleetConfig{Parallel: 4}, "Chain", 24, nil)
	close(stop)
	wg.Wait()
	if res.Finished != 24 {
		t.Fatalf("fleet under churn: res=%+v", res)
	}
}

// TestFleetQueueTransitionEvents pins the shard.* taxonomy: every
// instance is enqueued, activated and released exactly once.
func TestFleetQueueTransitionEvents(t *testing.T) {
	bus := obs.NewBus()
	sub := bus.Subscribe(4096)
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()), WithBus(bus))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	const n = 8
	runOneShard(t, e, FleetConfig{Parallel: 2}, "Chain", n, nil)
	counts := map[string]int{}
	for _, ev := range collectEvents(sub, bus) {
		counts[ev.Kind]++
	}
	for _, kind := range []string{obs.EvShardEnqueue, obs.EvShardActive, obs.EvShardDone} {
		if counts[kind] != n {
			t.Fatalf("%s events = %d, want %d (all: %v)", kind, counts[kind], n, counts)
		}
	}
	if bus.Dropped() != 0 {
		t.Fatalf("dropped = %d with a %d-deep subscriber", bus.Dropped(), 4096)
	}
}
