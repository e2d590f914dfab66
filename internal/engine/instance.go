package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/org"
	"repro/internal/wal"
)

// State is the lifecycle state of an activity instance (§3.2). Finished is
// transient — the engine immediately evaluates the exit condition and moves
// the activity to Terminated or back to Ready — so it never rests in a
// stored state.
type State uint8

// The stored activity states.
const (
	StateWaiting State = iota // start condition not yet decided
	StateReady
	StateRunning
	StateTerminated
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// scope is one executing graph: the root process, a block iteration or a
// subprocess invocation. Its path prefixes the paths of its activities.
// It is the runtime half of a plan — only what differs from instance to
// instance lives here, indexed by the plan's activity slots.
type scope struct {
	plan      *plan
	path      string // "" for root, "B#0", "B#0/S#1", ...
	input     *model.Container
	output    *model.Container
	acts      []actState // by plan slot
	owner     *actState  // block/process activity owning this scope (nil for root)
	remaining int
}

// actState is the run-time state of one activity within a scope.
type actState struct {
	plan   *actPlan
	sc     *scope
	joined string // cached scope-qualified path (see path())
	output *model.Container
	iter   int
	workID int64

	// Monotonic phase stamps for live latency attribution (obs.Now
	// nanoseconds): readyNs is when the activity last became ready, so
	// dispatch events carry the queue wait; progNs is the last program
	// invocation's wall time, carried on the finish event. progNs is
	// written by executeAttempts (a worker goroutine in concurrent mode)
	// and read by finishActivity after the completion channel
	// synchronizes the two.
	readyNs int64
	progNs  int64

	// Start conditions are AND or OR over the incoming control connectors,
	// so two counts stand for their truth values: how many have been
	// evaluated and how many of those to true.
	connSeen, connTrue int32

	state  State
	dead   bool
	forced bool // the current completion was forced by a user (no program ran)
}

// path returns the activity's scope-qualified path. The join is computed
// once and cached: path() is called on every navigation step (WAL record,
// trail event, bus publish), and re-concatenating would make each step
// allocate even when nothing is listening.
func (as *actState) path() string {
	if as.joined == "" {
		if as.sc.path == "" {
			as.joined = as.plan.act.Name
		} else {
			as.joined = as.sc.path + "/" + as.plan.act.Name
		}
	}
	return as.joined
}

// Instance is one execution of a process template. Instances are not safe
// for concurrent use; drive them from a single goroutine.
type Instance struct {
	eng *Engine
	id  string
	tpl *template
	log wal.Log

	root     *scope
	scopes   []*scope // every scope created so far, root first
	queue    []*actState
	trail    []trailRec
	failures []Event // the EvFailed events of the trail, whole (see trailRec)

	// replay indexes the completed activity executions of the log being
	// recovered; the records stay where Recover's caller put them.
	replay map[replayKey]*wal.Record

	// logq holds the records navigation has produced since the last
	// commitLog barrier, borrowed from logqPool while it is non-empty;
	// logFailed latches a failed barrier, after which nothing is logged.
	logq      *[]wal.Record
	logFailed bool

	// stMu guards the status fields below for cross-goroutine monitors
	// (Engine.Instances, Err, Finished, PendingWork). All writes happen on
	// the navigator goroutine, which may therefore read them directly; any
	// other goroutine must go through the locked accessors.
	stMu          sync.Mutex
	started       bool
	done          bool
	err           error
	pendingManual int

	// Concurrent-mode state: when concurrency > 1, program bodies run on a
	// worker pool of that size and completions flow through the channel.
	// Navigation itself stays on one goroutine either way.
	concurrency int
	inflight    int
	completions chan completion
	pool        chan struct{}
}

func newInstance(e *Engine, id string, tpl *template, input *model.Container, log wal.Log) *Instance {
	inst := &Instance{
		eng: e, id: id, tpl: tpl, log: log,
		trail:       make([]trailRec, 0, tpl.plan.events+2), // plus created and done
		concurrency: e.concurrency,
	}
	if inst.concurrency > 1 {
		inst.completions = make(chan completion, inst.concurrency)
		inst.pool = make(chan struct{}, inst.concurrency)
	}
	inst.root = inst.newScope(tpl.plan, "", input, nil)
	return inst
}

func (inst *Instance) newScope(p *plan, path string, input *model.Container, owner *actState) *scope {
	sc := &scope{
		plan: p, path: path,
		input: input, output: p.output.Clone(), owner: owner,
		acts:      make([]actState, len(p.acts)),
		remaining: len(p.acts),
	}
	for i := range sc.acts {
		sc.acts[i].plan, sc.acts[i].sc = &p.acts[i], sc
	}
	inst.scopes = append(inst.scopes, sc)
	return sc
}

// lookup finds the activity instance with the given scope-qualified path.
// Only monitoring and user interventions address activities by path, so the
// instance keeps no index over its scopes.
func (inst *Instance) lookup(path string) *actState {
	for _, sc := range inst.scopes {
		name := path
		if sc.path != "" {
			rest, ok := strings.CutPrefix(path, sc.path)
			if !ok || !strings.HasPrefix(rest, "/") {
				continue
			}
			name = rest[1:]
		}
		for i := range sc.acts {
			if sc.acts[i].plan.act.Name == name {
				return &sc.acts[i]
			}
		}
	}
	return nil
}

// ID returns the instance identifier.
func (inst *Instance) ID() string { return inst.id }

// ProcessName returns the name of the instantiated template.
func (inst *Instance) ProcessName() string { return inst.tpl.proc.Name }

// Finished reports whether every activity has terminated and the process
// output is final. Safe for concurrent use.
func (inst *Instance) Finished() bool {
	inst.stMu.Lock()
	defer inst.stMu.Unlock()
	return inst.done
}

// Err returns the instance's failure, if any (including wal.ErrCrash when a
// crash was injected). For a program activity that failed fatally the error
// is an *ActivityFailure carrying the path, program, attempt count and
// cause. Safe for concurrent use.
func (inst *Instance) Err() error {
	inst.stMu.Lock()
	defer inst.stMu.Unlock()
	return inst.err
}

// Failure returns the activity failure that stopped the instance, or nil
// when the instance did not fail or failed for a non-activity reason (e.g.
// a WAL error). Safe for concurrent use.
func (inst *Instance) Failure() *ActivityFailure {
	var af *ActivityFailure
	if errors.As(inst.Err(), &af) {
		return af
	}
	return nil
}

// StatusInfo returns the monitoring status ("created", "running",
// "finished" or "failed") and, for failed instances, the recorded cause
// message. Safe for concurrent use.
func (inst *Instance) StatusInfo() (status, cause string) {
	inst.stMu.Lock()
	defer inst.stMu.Unlock()
	switch {
	case inst.err != nil:
		return "failed", inst.err.Error()
	case inst.done:
		return "finished", ""
	case inst.started:
		return "running", ""
	default:
		return "created", ""
	}
}

// Output returns a copy of the process output container; call it after
// Finished reports true.
func (inst *Instance) Output() *model.Container { return inst.root.output.Clone() }

// Trail returns the audit trail so far, materialized from the stored
// records on every call. Like Trace and Activities it is not synchronized
// with navigation or with itself (activity paths are joined and cached on
// first use): call it from the navigator goroutine, or from one goroutine
// after the instance settled.
func (inst *Instance) Trail() []Event {
	out := make([]Event, len(inst.trail))
	for i := range inst.trail {
		out[i] = inst.materialize(&inst.trail[i])
	}
	return out
}

// PendingWork reports how many manual activities are waiting on worklists.
// Safe for concurrent use.
func (inst *Instance) PendingWork() int {
	inst.stMu.Lock()
	defer inst.stMu.Unlock()
	return inst.pendingManual
}

// ProgramRun summarizes one completed program-activity execution, in
// completion order — the observable history the transaction-model
// experiments assert on.
type ProgramRun struct {
	Path    string
	Program string
	Iter    int
	RC      int64
}

// ProgramRuns extracts the completed program executions from the trail.
func (inst *Instance) ProgramRuns() []ProgramRun {
	var out []ProgramRun
	for i := range inst.trail {
		r := &inst.trail[i]
		if r.kind == EvFinished && !r.flag && r.as.plan.act.Program != "" {
			out = append(out, ProgramRun{Path: r.as.path(), Program: r.as.plan.act.Program, Iter: int(r.iter), RC: r.rc})
		}
	}
	return out
}

// ActivityState reports the stored state of the activity at the given path.
func (inst *Instance) ActivityState(path string) (State, bool) {
	as := inst.lookup(path)
	if as == nil {
		return 0, false
	}
	return as.state, true
}

// ActivityInfo is a monitoring snapshot of one activity instance — the
// §3.3 monitoring capability ("activities ... are associated with users
// who can monitor their progress").
type ActivityInfo struct {
	Path string
	Kind model.ActivityKind
	// State is the stored state; Dead marks termination by dead path
	// elimination.
	State State
	Dead  bool
	Iter  int
	// Manual reports whether the activity starts from a worklist.
	Manual bool
}

// Activities returns a monitoring snapshot of every activity instance
// created so far (inner scopes appear once their block or subprocess has
// started), sorted by path.
func (inst *Instance) Activities() []ActivityInfo {
	var out []ActivityInfo
	for _, sc := range inst.scopes {
		for i := range sc.acts {
			as := &sc.acts[i]
			out = append(out, ActivityInfo{
				Path: as.path(), Kind: as.plan.act.Kind, State: as.state, Dead: as.dead,
				Iter: as.iter, Manual: as.plan.act.Start == model.StartManual,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Start begins navigation: the activities without incoming control
// connectors become ready and automatic activities execute until the
// instance finishes, fails, or only manual work remains.
func (inst *Instance) Start() error {
	if inst.started {
		return errors.New("engine: instance already started")
	}
	inst.markStarted()
	inst.appendLog(wal.Record{
		Type: wal.RecCreated, Instance: inst.id, Process: inst.tpl.proc.Name,
		Values: recordValues(inst.root.input),
	})
	inst.event(trailRec{kind: EvCreated})
	inst.startScope(inst.root)
	inst.pump()
	return inst.err
}

// SelectWork lets a person select a posted work item belonging to this
// instance; the activity executes and navigation continues.
func (inst *Instance) SelectWork(person string, itemID int64) error {
	if inst.eng.worklists == nil {
		return errors.New("engine: no organization attached")
	}
	if inst.err != nil {
		return inst.err
	}
	// SelectFor verifies the item belongs to this instance *before*
	// claiming it, so a selection through the wrong instance handle leaves
	// the item on every worklist.
	item, err := inst.eng.worklists.SelectFor(person, itemID, inst.id)
	if err != nil {
		return err
	}
	as := inst.lookup(item.Activity)
	if as == nil {
		return fmt.Errorf("engine: work item %d targets activity %q, which this instance does not have", itemID, item.Activity)
	}
	if as.state != StateReady {
		return fmt.Errorf("engine: work item %d targets activity %q in state %v", itemID, item.Activity, as.state)
	}
	inst.addPending(-1)
	inst.event(trailRec{kind: EvWorkSelected, as: as})
	inst.enqueue(as)
	inst.pump()
	return inst.err
}

// ForceFinish completes a ready manual activity on a user's behalf without
// invoking its program — §3.3: "The user can stop an activity, restart it,
// force it to finish, and so forth, independently of the rest of the
// process." The work item is withdrawn from every worklist and the
// activity finishes with the given return code (its output container
// otherwise holds the declared defaults), after which navigation continues
// normally: transition conditions see the forced RC.
func (inst *Instance) ForceFinish(path string, rc int64) error {
	if inst.err != nil {
		return inst.err
	}
	as := inst.lookup(path)
	if as == nil {
		return fmt.Errorf("engine: no activity at %q", path)
	}
	if as.state != StateReady || as.plan.act.Start != model.StartManual {
		return fmt.Errorf("engine: activity %q is not a ready manual activity", path)
	}
	if err := inst.eng.worklists.Withdraw(as.workID); err != nil {
		return err
	}
	inst.addPending(-1)
	inst.event(trailRec{kind: EvForced, as: as, rc: rc})
	out := as.plan.out.Clone()
	out.SetRC(rc)
	as.state = StateRunning
	as.forced = true
	inst.finishActivity(as, out)
	as.forced = false
	inst.pump()
	return inst.err
}

// Cancel terminates the process instance by user intervention: pending
// work items are withdrawn, queued automatic activities are dropped, every
// non-terminated activity is marked terminated, and the instance finishes
// with its current output container. Canceling a finished or failed
// instance is an error.
func (inst *Instance) Cancel() error {
	if inst.err != nil {
		return inst.err
	}
	if inst.done {
		return errors.New("engine: instance already finished")
	}
	if !inst.started {
		return errors.New("engine: instance not started")
	}
	inst.event(trailRec{kind: EvCanceled})
	inst.eng.metrics.instCanceled.Inc()
	inst.eng.metrics.queueDepth.Add(-int64(len(inst.queue)))
	inst.queue = nil
	for _, sc := range inst.scopes {
		for i := range sc.acts {
			as := &sc.acts[i]
			if as.state == StateTerminated {
				continue
			}
			if as.state == StateReady && as.plan.act.Start == model.StartManual && as.workID != 0 {
				if err := inst.eng.worklists.Withdraw(as.workID); err == nil {
					inst.addPending(-1)
				}
			}
			as.state = StateTerminated
			as.dead = true
		}
	}
	inst.appendLog(wal.Record{
		Type: wal.RecDone, Instance: inst.id, Values: recordValues(inst.root.output),
	})
	inst.commitLog()
	if inst.err != nil {
		return inst.err
	}
	inst.markDone()
	inst.event(trailRec{kind: EvDone})
	return nil
}

func (inst *Instance) fail(err error) {
	inst.stMu.Lock()
	first := inst.err == nil
	if first {
		inst.err = err
	}
	inst.stMu.Unlock()
	if first {
		inst.eng.metrics.instFailed.Inc()
	}
}

// failActivity records a fatal program-activity failure: the cause goes to
// the audit trail (EvFailed) and becomes the instance error, degrading the
// instance to the "failed" monitoring status. Navigation stops but the
// engine and its other instances are unaffected.
func (inst *Instance) failActivity(af *ActivityFailure) {
	inst.failures = append(inst.failures, Event{Kind: EvFailed, Path: af.Path, Iter: af.Iter, Program: af.Program, Cause: af.Cause.Error()})
	inst.event(trailRec{kind: EvFailed, rc: int64(len(inst.failures) - 1)})
	inst.fail(af)
}

// markStarted / markDone / addPending update monitor-visible status under
// the status lock; they are only called from the navigator goroutine.
func (inst *Instance) markStarted() {
	inst.stMu.Lock()
	inst.started = true
	inst.stMu.Unlock()
}

func (inst *Instance) markDone() {
	inst.stMu.Lock()
	inst.done = true
	inst.stMu.Unlock()
}

func (inst *Instance) addPending(d int) {
	inst.stMu.Lock()
	inst.pendingManual += d
	inst.stMu.Unlock()
}

// logqPool lends an instance the buffer that queues a navigation step's
// records, so an instance holds none between steps or once it has ended.
// A step of the reference models queues at most 3 records (finished +
// block-finished + done); 8 leaves room for deeper nesting.
var logqPool = sync.Pool{New: func() any {
	q := make([]wal.Record, 0, 8)
	return &q
}}

// appendLog queues rec behind the records navigation has produced since
// the last barrier; nothing reaches the log before commitLog.
func (inst *Instance) appendLog(rec wal.Record) {
	if inst.logFailed {
		return
	}
	if inst.logq == nil {
		inst.logq = logqPool.Get().(*[]wal.Record)
	}
	*inst.logq = append(*inst.logq, rec)
}

// commitLog is the write-ahead barrier: it hands every queued record to
// the log in one call and returns once they are durable, so the durable
// wait is paid per navigation step rather than per record. It runs before
// anything the records must precede becomes externally visible — a program
// body is invoked, a work item is posted, RecDone is reported (markDone,
// EvDone) — and before pump returns control to the caller of a navigating
// entry point. If the log refuses the records the instance fails with that
// error and logs nothing further, so what is on disk stays a prefix of the
// instance's record sequence.
func (inst *Instance) commitLog() {
	q := inst.logq
	if q == nil {
		return
	}
	inst.logq = nil
	if err := wal.AppendAll(inst.log, *q); err != nil {
		inst.logFailed = true
		inst.fail(err)
	} else {
		inst.eng.metrics.walAppends.Add(int64(len(*q)))
	}
	clear(*q)
	*q = (*q)[:0]
	logqPool.Put(q)
}

// trailRec is the stored form of an audit-trail event: which activity
// instance it is about and the few values that are not a function of that
// activity. Paths and program names are read off the activity when an
// Event is wanted — Trail, ProgramRuns, Trace, and at recording time only
// if an observer or the bus listens — so recording an event copies no
// strings. EvFailed alone does not fit: its Event is kept whole in
// Instance.failures and rc is its index there.
type trailRec struct {
	at   int64
	rc   int64     // EvFinished, EvForced: the return code
	as   *actState // the activity; the source for EvConnector; nil for instance-level events
	iter int32     // the activity's iteration when the event was recorded
	to   int32     // EvConnector: slot of the target activity in the source's scope
	kind EventKind
	flag bool // EvConnector: the truth value; EvFinished: the completion was forced
}

// materialize builds the Event a trail record stands for.
func (inst *Instance) materialize(r *trailRec) Event {
	if r.kind == EvFailed {
		ev := inst.failures[r.rc]
		ev.At = r.at
		return ev
	}
	ev := Event{Kind: r.kind, At: r.at}
	if r.as == nil {
		return ev
	}
	if r.kind == EvConnector {
		ev.From, ev.To, ev.Value = r.as.path(), r.as.sc.acts[r.to].path(), r.flag
		return ev
	}
	ev.Path, ev.Iter = r.as.path(), int(r.iter)
	switch r.kind {
	case EvStarted:
		ev.Program = r.as.plan.act.Program
	case EvFinished:
		ev.RC = r.rc
		if !r.flag { // forced completions are not program executions
			ev.Program = r.as.plan.act.Program
		}
	case EvForced:
		ev.RC = r.rc
	}
	return ev
}

// event appends one record to the audit trail, stamping the engine clock
// and the activity's current iteration, and hands the materialized Event
// to whoever listens.
func (inst *Instance) event(r trailRec) {
	r.at = inst.eng.clock()
	if r.as != nil {
		r.iter = int32(r.as.iter)
	}
	inst.trail = append(inst.trail, r)
	bus := inst.eng.bus.Active()
	if !bus && inst.eng.trailObs == nil {
		return
	}
	ev := inst.materialize(&r)
	if bus {
		inst.publishTrail(ev, r.as)
	}
	if inst.eng.trailObs != nil {
		inst.eng.trailObs(inst, ev)
	}
}

// compensationActivityName is the well-known name the Figure 2/4
// translations give the compensation block (internal/fmtm); dispatching
// a block by this name is the observable "compensation entered" moment.
const compensationActivityName = "Compensation"

// publishTrail mirrors the externally interesting audit-trail events
// onto the engine's real-time bus, enriched with the monotonic phase
// stamps that trail events (wall-clock seconds) cannot carry. as is the
// activity the event is about (nil for instance-level events and for
// EvFailed, which need none of its stamps).
func (inst *Instance) publishTrail(ev Event, as *actState) {
	bus := inst.eng.bus
	switch ev.Kind {
	case EvCreated:
		bus.Publish(obs.Event{Kind: obs.EvInstanceStarted, Instance: inst.id})
	case EvStarted:
		var wait int64
		if as.readyNs > 0 {
			wait = obs.Now() - as.readyNs
		}
		bus.Publish(obs.Event{Kind: obs.EvActivityDispatch, Instance: inst.id,
			Path: ev.Path, Iter: ev.Iter, Program: ev.Program, DurNs: wait})
		if as.plan.act.Kind == model.KindBlock && as.plan.act.Name == compensationActivityName {
			bus.Publish(obs.Event{Kind: obs.EvCompensation, Instance: inst.id, Path: ev.Path, Iter: ev.Iter})
		}
	case EvFinished:
		bus.Publish(obs.Event{Kind: obs.EvActivityFinished, Instance: inst.id,
			Path: ev.Path, Iter: ev.Iter, Program: ev.Program, RC: ev.RC, DurNs: as.progNs})
	case EvLooped:
		bus.Publish(obs.Event{Kind: obs.EvActivityLoop, Instance: inst.id, Path: ev.Path, Iter: ev.Iter})
	case EvDeadPath:
		bus.Publish(obs.Event{Kind: obs.EvActivityDeadPath, Instance: inst.id, Path: ev.Path, Iter: ev.Iter})
	case EvFailed:
		bus.Publish(obs.Event{Kind: obs.EvInstanceFailed, Instance: inst.id,
			Path: ev.Path, Iter: ev.Iter, Program: ev.Program, Cause: ev.Cause})
	case EvDone:
		bus.Publish(obs.Event{Kind: obs.EvInstanceFinished, Instance: inst.id})
	case EvCanceled:
		bus.Publish(obs.Event{Kind: obs.EvInstanceCanceled, Instance: inst.id})
	}
}

func (inst *Instance) enqueue(as *actState) {
	inst.queue = append(inst.queue, as)
	inst.eng.metrics.queueDepth.Add(1)
}

// completion carries a finished asynchronous program invocation back to
// the navigator goroutine.
type completion struct {
	as  *actState
	out *model.Container
	err error
}

// pump drives navigation. Everything except program bodies runs on the
// calling (navigator) goroutine; in concurrent mode program bodies execute
// on a bounded worker pool and their completions are folded back in here,
// so navigation state needs no locking. Every navigating entry point but
// Cancel returns through pump, which therefore ends on the commitLog
// barrier: what the caller can observe afterwards is on the log — also
// when the instance failed for a reason other than the log.
func (inst *Instance) pump() {
	for {
		for inst.err == nil && len(inst.queue) > 0 {
			as := inst.queue[0]
			inst.queue = inst.queue[1:]
			inst.eng.metrics.queueDepth.Add(-1)
			if as.state != StateReady {
				continue // stale entry (e.g. scope was reset)
			}
			inst.eng.metrics.navSteps.Inc()
			inst.runActivity(as)
		}
		if inst.inflight == 0 {
			inst.commitLog()
			return
		}
		// Queue drained (or the instance failed) with programs in flight:
		// wait for the next completion. On failure we still drain so no
		// goroutine leaks.
		c := <-inst.completions
		inst.inflight--
		inst.eng.metrics.inflight.Add(-1)
		if inst.err != nil {
			continue
		}
		if c.err != nil {
			var af *ActivityFailure
			if errors.As(c.err, &af) {
				inst.failActivity(af)
			} else {
				inst.fail(c.err)
			}
			continue
		}
		inst.finishActivity(c.as, c.out)
	}
}

func (inst *Instance) startScope(sc *scope) {
	if sc.remaining == 0 {
		inst.scopeDone(sc)
		return
	}
	for _, slot := range sc.plan.starts {
		inst.setReady(&sc.acts[slot])
		if inst.err != nil {
			return
		}
	}
}

func (inst *Instance) setReady(as *actState) {
	as.state = StateReady
	as.readyNs = obs.Now()
	inst.event(trailRec{kind: EvReady, as: as})
	if as.plan.act.Start == model.StartManual {
		inst.postWork(as)
		return
	}
	inst.enqueue(as)
}

func (inst *Instance) postWork(as *actState) {
	if inst.eng.worklists == nil {
		inst.fail(fmt.Errorf("engine: manual activity %q requires an organization", as.path()))
		return
	}
	inst.commitLog()
	if inst.err != nil {
		return
	}
	item, err := inst.eng.worklists.Post(org.WorkItem{
		Activity: as.path(), Instance: inst.id,
		ReadyAt:     inst.eng.clock(),
		NotifyAfter: as.plan.act.NotifySeconds, NotifyRole: as.plan.act.NotifyRole,
	}, as.plan.act.Staff.Role, as.plan.act.Staff.Person)
	if err != nil {
		inst.fail(err)
		return
	}
	as.workID = item.ID
	inst.addPending(1)
	inst.event(trailRec{kind: EvWorkPosted, as: as})
}

func (inst *Instance) runActivity(as *actState) {
	as.state = StateRunning
	inst.event(trailRec{kind: EvStarted, as: as})

	switch as.plan.act.Kind {
	case model.KindProgram:
		// Recovery path: a logged completion replaces the program
		// invocation. Blocks and subprocesses always re-navigate (their
		// member completions replay individually), so a recovered run
		// produces the identical audit trail.
		if rec := inst.replayHit(as); rec != nil {
			out := as.plan.out.Clone()
			if err := out.Restore(rec.Values.Keys, rec.Values.Vals); err != nil {
				inst.fail(err)
				return
			}
			inst.finishActivity(as, out)
			return
		}
		inst.runProgram(as)
	case model.KindBlock:
		in := inst.buildInput(as)
		if inst.err != nil {
			return
		}
		inst.startScope(inst.newScope(as.plan.block, childPath(as), in, as))
	case model.KindProcess:
		in := inst.buildInput(as)
		if inst.err != nil {
			return
		}
		sub := as.plan.sub.plan
		subIn := sub.input.Clone()
		copyCommon(subIn, in)
		inst.startScope(inst.newScope(sub, childPath(as), subIn, as))
	default:
		inst.fail(fmt.Errorf("engine: activity %q has invalid kind", as.path()))
	}
}

// childPath is the path of the scope the activity's current iteration
// opens: "Forward#0".
func childPath(as *actState) string {
	return as.path() + "#" + strconv.Itoa(as.iter)
}

func (inst *Instance) runProgram(as *actState) {
	in := inst.buildInput(as)
	if inst.err != nil {
		return
	}
	inst.appendLog(wal.Record{
		Type: wal.RecStartedActivity, Instance: inst.id, Path: as.path(), Iter: as.iter,
	})
	inst.commitLog() // the program body must not run ahead of the log
	if inst.err != nil {
		return
	}
	if inst.concurrency > 1 {
		// Concurrent mode: run the program body on the worker pool; the
		// completion is folded back into navigation by pump. The attempt
		// loop only touches state that is immutable while the activity
		// runs, so it is safe on the worker goroutine.
		inst.inflight++
		inst.eng.metrics.inflight.Add(1)
		pool := inst.pool
		go func() {
			pool <- struct{}{}
			out, err := inst.executeAttempts(as, in)
			<-pool
			inst.completions <- completion{as: as, out: out, err: err}
		}()
		return
	}
	final, err := inst.executeAttempts(as, in)
	if err != nil {
		var af *ActivityFailure
		if errors.As(err, &af) {
			inst.failActivity(af)
		} else {
			inst.fail(err)
		}
		return
	}
	inst.finishActivity(as, final)
}

// executeAttempts drives the fault-tolerant invocation of one program
// activity: each attempt runs with panic isolation and the activity's
// optional deadline against a fresh output container (a failed attempt
// must not leak partial output into the next one); transient errors are
// retried under the activity's RetryPolicy with exponential backoff, and
// the final error is an *ActivityFailure recording the cause. It is called
// on the navigator goroutine in sequential mode and on a worker goroutine
// in concurrent mode — everything it touches is immutable while the
// activity is running.
func (inst *Instance) executeAttempts(as *actState, in *model.Container) (*model.Container, error) {
	m := inst.eng.metrics
	act, prog := as.plan.act, as.plan.prog
	budget := act.Retry.Attempts()
	br := inst.eng.breakerFor(act.Program)
	var lastErr error
	attempts := 0
	start := time.Now()
	for attempt := 1; attempt <= budget; attempt++ {
		out := as.plan.out.Clone()
		inv := &Invocation{
			InstanceID: inst.id, Path: as.path(), Iter: as.iter,
			In: in, Out: out, Attempt: attempt,
		}
		attempts = attempt
		if attempt > 1 {
			m.retries.Inc()
		}
		blocked := false
		if br != nil {
			if berr := br.Allow(); berr != nil {
				// Fail fast without invoking: the breaker has seen this
				// program failing at a rate where another call is wasted
				// work. Transient, so backoff + a later attempt (or the
				// half-open probe) still gets a chance.
				blocked = true
				lastErr = Transient(berr)
			}
		}
		if !blocked {
			if err := invokeGuarded(prog, inv, act.DeadlineMS); err == nil {
				if br != nil {
					br.Record(false)
				}
				if rb := inst.eng.retryBudget; rb != nil {
					rb.Deposit()
					inst.eng.recordRetryBudgetGauge()
				}
				m.invocations.Inc()
				if out.RC() == 0 {
					m.committed.Inc()
				} else {
					m.aborted.Inc()
				}
				as.progNs = time.Since(start).Nanoseconds()
				m.programNs.Observe(as.progNs)
				return out, nil
			} else {
				lastErr = err
				if br != nil {
					br.Record(true)
				}
			}
			var pe *PanicError
			if errors.As(lastErr, &pe) {
				m.panics.Inc()
				if bus := inst.eng.bus; bus.Active() {
					bus.Publish(obs.Event{Kind: obs.EvActivityPanic, Instance: inst.id,
						Path: as.path(), Iter: as.iter, Program: act.Program,
						N: int64(attempt), Cause: lastErr.Error()})
				}
			}
		}
		if !isTransient(lastErr) || attempt == budget {
			break
		}
		if rb := inst.eng.retryBudget; rb != nil {
			if !rb.Withdraw() {
				// Budget exhausted: forgo the retry so correlated failures
				// cannot multiply into a retry storm; the activity fails
				// with the last error.
				inst.publishRetryExhausted(as.path(), act.Program, attempt)
				break
			}
			inst.eng.recordRetryBudgetGauge()
		}
		var backoff time.Duration
		if rp := act.Retry; rp != nil && rp.BackoffMS > 0 {
			backoff = time.Duration(rp.BackoffMS<<(attempt-1)) * time.Millisecond
			m.backoffNs.Observe(backoff.Nanoseconds())
		}
		if bus := inst.eng.bus; bus.Active() {
			bus.Publish(obs.Event{Kind: obs.EvActivityRetry, Instance: inst.id,
				Path: as.path(), Iter: as.iter, Program: act.Program,
				N: int64(attempt), DurNs: backoff.Nanoseconds(), Cause: lastErr.Error()})
		}
		if backoff > 0 {
			inst.eng.sleep(backoff)
		}
	}
	m.invocations.Inc()
	m.progFailed.Inc()
	as.progNs = time.Since(start).Nanoseconds()
	m.programNs.Observe(as.progNs)
	return nil, &ActivityFailure{
		Path: as.path(), Program: act.Program, Iter: as.iter,
		Attempts: attempts, Cause: lastErr,
	}
}

// invokeGuarded runs one invocation attempt with panic isolation and an
// optional wall-clock deadline. A panic inside the program becomes a
// *PanicError (fatal); a missed deadline becomes ErrDeadlineExceeded
// (transient). When the deadline fires, the runaway invocation keeps
// executing on its abandoned goroutine against an output container the
// engine will never read again — the documented cost of preempting
// programs that cannot be cancelled.
func invokeGuarded(prog Program, inv *Invocation, deadlineMS int64) error {
	if deadlineMS <= 0 {
		return runIsolated(prog, inv)
	}
	done := make(chan error, 1)
	go func() { done <- runIsolated(prog, inv) }()
	timer := time.NewTimer(time.Duration(deadlineMS) * time.Millisecond)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return ErrDeadlineExceeded
	}
}

// runIsolated confines a program panic to the invocation that caused it.
func runIsolated(prog Program, inv *Invocation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return prog.Run(inv)
}

// copyCommon copies members present in both containers with compatible
// kinds; the bridge between a process activity's containers and the
// subprocess's own type registry.
func copyCommon(dst, src *model.Container) {
	for _, path := range src.Paths() {
		if _, ok := dst.Get(path); ok {
			_ = dst.CopyFrom(src, path, path) // incompatible kinds are skipped by design
		}
	}
}

// buildInput materializes an activity's input container by pulling the
// data connectors that target it: scope input and the stored outputs of
// terminated source activities. Connectors from activities that never ran
// (dead paths) contribute nothing — the target sees declared defaults.
func (inst *Instance) buildInput(as *actState) *model.Container {
	in := as.plan.in.Clone()
	for _, d := range as.plan.dataIn {
		src := as.sc.input
		if d.from != scopeInput {
			src = as.sc.acts[d.from].output // nil when dead or not yet run
		}
		if src == nil {
			continue
		}
		for _, m := range d.maps {
			if err := in.CopyFrom(src, m.FromPath, m.ToPath); err != nil {
				inst.fail(err)
				return nil
			}
		}
	}
	return in
}

// finishActivity handles the transient finished state: log the completion,
// evaluate the exit condition, loop or terminate.
func (inst *Instance) finishActivity(as *actState, out *model.Container) {
	inst.appendLog(wal.Record{
		Type: wal.RecFinishedActivity, Instance: inst.id, Path: as.path(), Iter: as.iter,
		Values: recordValues(out),
	})
	inst.event(trailRec{kind: EvFinished, as: as, rc: out.RC(), flag: as.forced})

	if exit := as.plan.act.Exit; exit != nil {
		ok, err := expr.EvalBool(exit, out)
		if err != nil {
			inst.fail(err)
			return
		}
		if !ok {
			// §3.2: "If false, the activity is rescheduled for execution."
			inst.eng.metrics.loops.Inc()
			inst.event(trailRec{kind: EvLooped, as: as})
			as.iter++
			inst.setReady(as)
			return
		}
	}
	inst.terminateActivity(as, out, false)
}

// terminateActivity moves the activity to terminated, propagates connector
// truth values (false for dead activities — dead path elimination) and
// completes the scope when it was the last one.
func (inst *Instance) terminateActivity(as *actState, out *model.Container, dead bool) {
	as.state = StateTerminated
	as.dead = dead
	as.output = out
	if dead {
		inst.eng.metrics.deadPaths.Inc()
		inst.event(trailRec{kind: EvDeadPath, as: as})
	} else {
		inst.event(trailRec{kind: EvTerminated, as: as})
		inst.applyScopeOutput(as, out)
		if inst.err != nil {
			return
		}
	}
	for _, c := range as.plan.outgoing {
		val := false
		if !dead {
			if c.cond == nil {
				val = true
			} else {
				v, err := expr.EvalBool(c.cond, out)
				if err != nil {
					inst.fail(err)
					return
				}
				val = v
			}
		}
		inst.event(trailRec{kind: EvConnector, as: as, to: c.to, flag: val})
		tgt := &as.sc.acts[c.to]
		tgt.connSeen++
		if val {
			tgt.connTrue++
		}
		inst.checkStart(tgt)
		if inst.err != nil {
			return
		}
	}
	as.sc.remaining--
	if as.sc.remaining == 0 {
		inst.scopeDone(as.sc)
	}
}

// applyScopeOutput pushes the activity's outputs into the scope output
// container along data connectors targeting the scope sink.
func (inst *Instance) applyScopeOutput(as *actState, out *model.Container) {
	for _, d := range as.plan.dataOut {
		for _, m := range d.Maps {
			if err := as.sc.output.CopyFrom(out, m.FromPath, m.ToPath); err != nil {
				inst.fail(err)
				return
			}
		}
	}
}

// checkStart applies the start condition once every incoming control
// connector has a truth value: AND needs all true, OR needs at least one.
// A false start condition triggers dead path elimination.
func (inst *Instance) checkStart(as *actState) {
	if as.state != StateWaiting {
		return
	}
	if as.connSeen < as.plan.incoming {
		return // §3.2: wait until all incoming connectors are evaluated
	}
	start := as.connTrue == as.plan.incoming
	if as.plan.act.Join == model.JoinOr {
		start = as.connTrue > 0
	}
	if start {
		inst.setReady(as)
		return
	}
	// Dead path elimination: the activity will never execute; it is marked
	// terminated and its outgoing connectors evaluate to false.
	inst.terminateActivity(as, nil, true)
}

// scopeDone fires when every activity of a scope has terminated: the root
// scope completes the instance; a block or subprocess scope completes its
// owning activity.
func (inst *Instance) scopeDone(sc *scope) {
	if sc.owner == nil {
		inst.appendLog(wal.Record{
			Type: wal.RecDone, Instance: inst.id, Values: recordValues(sc.output),
		})
		inst.commitLog()
		if inst.err != nil {
			return
		}
		inst.markDone()
		inst.eng.metrics.instFinished.Inc()
		inst.event(trailRec{kind: EvDone})
		return
	}
	owner := sc.owner
	if owner.plan.act.Kind == model.KindProcess {
		// Bridge the subprocess output back into the owner's container.
		out := owner.plan.out.Clone()
		copyCommon(out, sc.output)
		inst.finishActivity(owner, out)
		return
	}
	inst.finishActivity(owner, sc.output)
}

// replayKey names one activity execution in the replay index.
type replayKey struct {
	path string
	iter int
}

// replayHit returns the logged completion of the activity's current
// iteration, if the log being recovered has one that carries an output.
func (inst *Instance) replayHit(as *actState) *wal.Record {
	if rec := inst.replay[replayKey{as.path(), as.iter}]; rec != nil && rec.Values.Len() > 0 {
		return rec
	}
	return nil
}

// recordValues is a container's record form: shared paths, copied slots.
func recordValues(c *model.Container) wal.Values {
	keys, vals := c.Vector()
	return wal.Values{Keys: keys, Vals: vals}
}
