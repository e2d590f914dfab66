package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
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
	plan *plan
	// joined is the scope's path ("B#0", "B#0/S#1", ...; pathLen bytes)
	// followed by every activity's scope-qualified path in slot order —
	// the scope's path, "/" and the activity's name — so a nested scope
	// builds all its paths in one string when it opens. The root's
	// activities go by their names and its joined is "".
	joined string
	input  *model.Container
	// output is the plan's frozen default until an activity's output is
	// first mapped into it (applyScopeOutput).
	output *model.Container
	acts   []actState // by plan slot
	// outputs holds, by actPlan.keep, the outputs of the terminated
	// activities that a data connector reads; nil when the plan keeps none.
	outputs   []*model.Container
	owner     *actState // block/process activity owning this scope (nil for root)
	index     int32     // position in Instance.scopes
	remaining int32
	pathLen   int32
	// zero marks the root and a block's scope that every owner above it
	// opened in its iteration 0 within the same process: the scopes such a
	// scope's blocks and subprocess calls open in their iteration 0 take
	// the joined paths their owner's plan holds (actPlan.joined), shared by
	// every instance. A subprocess's scope is not zero, as the plans of its
	// blocks were joined below the subprocess's own root.
	zero bool
}

// path returns the scope's path, "" for the root.
func (sc *scope) path() string { return sc.joined[:sc.pathLen] }

// actPath returns the scope-qualified path of the activity in the slot.
func (sc *scope) actPath(slot int32) string {
	ap := &sc.plan.acts[slot]
	if sc.owner == nil {
		return ap.act.Name
	}
	n := int(sc.pathLen)
	from := n + int(slot)*(n+1) + int(ap.nameOff)
	return sc.joined[from : from+n+1+len(ap.act.Name)]
}

// joinPaths builds a nested scope's joined paths. The scope's path is the
// path of the activity that opens it and that activity's iteration,
// "Forward#0". A scope opened in iteration 0 below a zero scope takes its
// owner plan's copy (actPlan.joined) instead.
func joinPaths(p *plan, owner string, iter int32) (joined string, pathLen int32) {
	var digits [11]byte
	it := strconv.AppendInt(digits[:0], int64(iter), 10)
	n := len(owner) + 1 + len(it)
	var b strings.Builder
	b.Grow(n + len(p.acts)*(n+1) + p.names)
	path := func() {
		b.WriteString(owner)
		b.WriteByte('#')
		b.Write(it)
	}
	path()
	for i := range p.acts {
		path()
		b.WriteByte('/')
		b.WriteString(p.acts[i].act.Name)
	}
	return b.String(), int32(n)
}

// actState is the run-time state of one activity within a scope. It holds
// no pointer — the scope and the plan are reached through its scope index
// and slot — so the garbage collector never scans a scope's slab. 32 bytes.
type actState struct {
	// readyNs is when the activity last became ready (obs.Now nanoseconds),
	// so dispatch events carry the queue wait: stamped only while the bus
	// is active, 0 ("no wait") otherwise.
	readyNs int64

	sc   int32 // the activity's scope in Instance.scopes
	slot int32 // the activity's slot in that scope and its plan
	iter int32

	// Start conditions are AND or OR over the incoming control connectors,
	// so two counts stand for their truth values: how many have been
	// evaluated and how many of those to true.
	connSeen, connTrue int32

	state  State
	dead   bool
	forced bool // the current completion was forced by a user (no program ran)
}

// scopeOf returns the scope the activity belongs to.
func (inst *Instance) scopeOf(as *actState) *scope { return inst.scopes[as.sc] }

// planOf returns the activity's plan.
func (inst *Instance) planOf(as *actState) *actPlan {
	return &inst.scopes[as.sc].plan.acts[as.slot]
}

// path returns the activity's scope-qualified path.
func (inst *Instance) path(as *actState) string {
	return inst.scopes[as.sc].actPath(as.slot)
}

// actKey names an activity of an instance by scope index and slot.
type actKey struct{ sc, slot int32 }

// Instance is one execution of a process template. Instances are not safe
// for concurrent use; drive them from a single goroutine.
type Instance struct {
	// The fields that hold pointers come first: the garbage collector scans
	// an object only up to its last pointer, and an engine keeps every
	// instance it finished.
	eng *Engine
	id  string
	tpl *template
	log wal.Log

	root   *scope
	scopes []*scope // every scope created so far, root first
	// queue[qhead:] are the activities waiting for a navigation step; the
	// queue starts over from its first element whenever it drains.
	queue []*actState
	// trail is the audit trail. While a navigating call runs it lives in a
	// buffer borrowed from trailPool (trailBuf), and when the call returns
	// it is copied to a slice of its exact length (settle).
	trail    []trailRec
	trailBuf *[]trailRec
	failures []Event // the EvFailed events of the trail, whole (see trailRec)

	// The trail's stamps, stored as runs of events that share one: at0 is
	// the stamp of the run that begins at trail[0], and stamps holds a run
	// for every later event whose stamp differs from its predecessor's —
	// none while the clock does not move during the run.
	stamps []stampRun

	// replay indexes the completed activity executions of the log being
	// recovered; the records stay where Recover's caller put them.
	replay map[replayKey]*wal.Record

	// work holds the worklist item of every manual activity posted so far
	// (its latest posting); nil while none has been.
	work map[actKey]int64

	// logq holds the records navigation has produced since the last
	// commitLog barrier, in a buffer borrowed from logqPool from the first
	// record of a navigating call until the call returns (settle).
	logq *[]wal.Record

	// completions and pool carry concurrent mode (see inflight).
	completions chan completion
	pool        chan struct{}

	err error // guarded by stMu

	at0 int64 // see stamps

	// now is the engine clock as last read, the stamp of every trail event
	// and work item until the next read. It is read on entry to a
	// navigating call, per navigation step pump dequeues and per program
	// completion (run, replayed or folded in from the pool) — the same
	// points in a live run and in its replay.
	now int64

	// progNs is the wall time of the program invocation whose completion
	// finishActivity is folding in (0 for a replayed, forced, block or
	// subprocess completion), carried on the bus's finish event.
	progNs int64

	// stMu guards started, done, err and pendingManual for cross-goroutine
	// monitors (Engine.Instances, Err, Finished, PendingWork). All writes
	// happen on the navigator goroutine, which may therefore read them
	// directly; any other goroutine must go through the locked accessors.
	stMu          sync.Mutex
	pendingManual int32

	// inflight counts the program bodies running on the worker pool in
	// concurrent mode (Engine.concurrency > 1); their completions flow
	// through the channel. Navigation itself stays on one goroutine either
	// way.
	inflight int32

	qhead int32 // see queue

	started bool
	done    bool

	// logFailed latches a failed commitLog barrier, after which nothing is
	// logged.
	logFailed bool

	// replayDone is set while the log being recovered ends in RecDone: a
	// manual activity with no logged completion is then not posted, since
	// the instance was canceled before anyone finished it (Recover).
	replayDone bool
}

func newInstance(e *Engine, id string, tpl *template, input *model.Container, log wal.Log) *Instance {
	inst := &Instance{eng: e, id: id, tpl: tpl, log: log}
	if n := e.concurrency; n > 1 {
		inst.completions = make(chan completion, n)
		inst.pool = make(chan struct{}, n)
	}
	inst.root = inst.newScope(tpl.plan, input, nil)
	return inst
}

// newScope opens a scope over the plan. The scope's output is the plan's
// frozen default until something is mapped into it.
func (inst *Instance) newScope(p *plan, input *model.Container, owner *actState) *scope {
	sc := &scope{
		plan: p, input: input, output: p.output, owner: owner,
		acts:      make([]actState, len(p.acts)),
		index:     int32(len(inst.scopes)),
		remaining: int32(len(p.acts)),
	}
	if p.kept > 0 {
		sc.outputs = make([]*model.Container, p.kept)
	}
	switch {
	case owner == nil:
		sc.zero = true
	case owner.iter == 0 && inst.scopeOf(owner).zero:
		ap := inst.planOf(owner)
		sc.joined, sc.pathLen, sc.zero = ap.joined, ap.pathLen, ap.block != nil
	default:
		sc.joined, sc.pathLen = joinPaths(p, inst.path(owner), owner.iter)
	}
	for i := range sc.acts {
		sc.acts[i].sc, sc.acts[i].slot = sc.index, int32(i)
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
		if sc.owner != nil {
			rest, ok := strings.CutPrefix(path, sc.path())
			if !ok || !strings.HasPrefix(rest, "/") {
				continue
			}
			name = rest[1:]
		}
		for i := range sc.acts {
			if sc.plan.acts[i].act.Name == name {
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
// with navigation: call it from the navigator goroutine, or after the
// instance settled.
func (inst *Instance) Trail() []Event {
	out := make([]Event, len(inst.trail))
	at, k := inst.at0, 0
	for i := range inst.trail {
		if k < len(inst.stamps) && inst.stamps[k].from == i {
			at = inst.stamps[k].at
			k++
		}
		out[i] = inst.materialize(&inst.trail[i], at)
	}
	return out
}

// PendingWork reports how many manual activities are waiting on worklists.
// Safe for concurrent use.
func (inst *Instance) PendingWork() int {
	inst.stMu.Lock()
	defer inst.stMu.Unlock()
	return int(inst.pendingManual)
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
		if r.kind != EvFinished || r.flag {
			continue
		}
		sc := inst.scopes[r.sc]
		if prog := sc.plan.acts[r.slot].act.Program; prog != "" {
			out = append(out, ProgramRun{Path: sc.actPath(r.slot), Program: prog, Iter: int(r.iter), RC: r.rc})
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
	n := 0
	for _, sc := range inst.scopes {
		n += len(sc.acts)
	}
	out := make([]ActivityInfo, 0, n)
	for _, sc := range inst.scopes {
		for i := range sc.acts {
			as, act := &sc.acts[i], sc.plan.acts[i].act
			out = append(out, ActivityInfo{
				Path: sc.actPath(int32(i)), Kind: act.Kind, State: as.state, Dead: as.dead,
				Iter: int(as.iter), Manual: act.Start == model.StartManual,
			})
		}
	}
	slices.SortFunc(out, func(a, b ActivityInfo) int { return strings.Compare(a.Path, b.Path) })
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
	inst.tick()
	inst.appendLog(wal.Record{
		Type: wal.RecCreated, Instance: inst.id, Process: inst.tpl.proc.Name,
		Values: recordValues(inst.root.input),
	})
	inst.event(nil, trailRec{kind: EvCreated})
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
	inst.tick()
	inst.event(as, trailRec{kind: EvWorkSelected})
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
	ap := inst.planOf(as)
	if as.state != StateReady || ap.act.Start != model.StartManual {
		return fmt.Errorf("engine: activity %q is not a ready manual activity", path)
	}
	if err := inst.eng.worklists.Withdraw(inst.work[actKey{as.sc, as.slot}]); err != nil {
		return err
	}
	inst.addPending(-1)
	inst.tick()
	inst.event(as, trailRec{kind: EvForced, rc: rc})
	out := ap.out.Clone()
	out.SetRC(rc)
	as.state = StateRunning
	as.forced = true
	inst.finishActivity(as, out, 0)
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
	inst.tick()
	inst.event(nil, trailRec{kind: EvCanceled})
	defer inst.settle()
	inst.eng.metrics.instCanceled.Inc()
	inst.dropQueue()
	for _, sc := range inst.scopes {
		for i := range sc.acts {
			as := &sc.acts[i]
			if as.state == StateTerminated {
				continue
			}
			if as.state == StateReady && sc.plan.acts[i].act.Start == model.StartManual {
				if id := inst.work[actKey{as.sc, as.slot}]; id != 0 {
					if err := inst.eng.worklists.Withdraw(id); err == nil {
						inst.addPending(-1)
					}
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
	inst.event(nil, trailRec{kind: EvDone})
	inst.release()
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
	inst.event(nil, trailRec{kind: EvFailed, rc: int64(len(inst.failures) - 1)})
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

func (inst *Instance) addPending(d int32) {
	inst.stMu.Lock()
	inst.pendingManual += d
	inst.stMu.Unlock()
}

// logqPool lends an instance the buffer that queues a navigation step's
// records for one navigating call, so an instance holds none between calls
// or once it has ended.
// A step of the reference models queues at most 3 records (finished +
// block-finished + done); 8 leaves room for deeper nesting.
var logqPool = sync.Pool{New: func() any {
	q := make([]wal.Record, 0, 8)
	return &q
}}

// trailPool lends an instance the buffer its trail grows in while a
// navigating call runs; settle gives it back and keeps a copy of the
// trail's exact length. A travel saga records about 26 events, a Figure 3
// instance about 47.
var trailPool = sync.Pool{New: func() any {
	t := make([]trailRec, 0, 128)
	return &t
}}

// settle ends a navigating call's use of its borrowed buffers, after its
// last commitLog barrier: the record queue goes back to logqPool, and the
// trail becomes a copy of its exact length while its buffer goes back to
// trailPool. Whatever the instance does next — finish, wait on a
// worklist, stay failed or crashed — it holds no spare capacity.
func (inst *Instance) settle() {
	if q := inst.logq; q != nil {
		inst.logq = nil
		logqPool.Put(q)
	}
	buf := inst.trailBuf
	if buf == nil {
		return
	}
	inst.trailBuf = nil
	inst.trail, *buf = append([]trailRec(nil), inst.trail...), inst.trail[:0]
	trailPool.Put(buf)
}

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
	if q == nil || len(*q) == 0 {
		return
	}
	if err := wal.AppendAll(inst.log, *q); err != nil {
		inst.logFailed = true
		inst.fail(err)
	} else {
		inst.eng.metrics.walAppends.Add(int64(len(*q)))
	}
	clear(*q)
	*q = (*q)[:0]
}

// trailRec is the stored form of an audit-trail event: which activity
// instance it is about and the few values that are not a function of that
// activity. The activity is named by scope index and slot, not pointed to,
// so a trail holds no pointer and the garbage collector never scans it.
// Paths and program names are read off the activity when an Event is
// wanted — Trail, ProgramRuns, Trace, and at recording time only if an
// observer or the bus listens — so recording an event copies no strings.
// The stamp is not stored per record: events between two clock reads
// share it, so the instance keeps one stampRun per clock read that moved.
// EvFailed alone does not fit: its Event is kept whole in Instance.failures
// and rc is its index there. 24 bytes.
type trailRec struct {
	rc   int64 // EvFinished, EvForced: the return code
	sc   int32 // the activity's scope in Instance.scopes; -1 for instance-level events
	slot int32 // the activity's slot in that scope; the source for EvConnector
	// iter is the activity's iteration when the event was recorded; for
	// EvConnector, whose Event carries no iteration, the slot of the target
	// activity in the source's scope.
	iter int32
	kind EventKind
	flag bool // EvConnector: the truth value; EvFinished: the completion was forced
}

// stampRun is the clock stamp of the trail events from trail[from] up to
// the next run.
type stampRun struct {
	from int
	at   int64
}

// materialize builds the Event a trail record stamped at stands for.
func (inst *Instance) materialize(r *trailRec, at int64) Event {
	if r.kind == EvFailed {
		ev := inst.failures[r.rc]
		ev.At = at
		return ev
	}
	ev := Event{Kind: r.kind, At: at}
	if r.sc < 0 {
		return ev
	}
	sc := inst.scopes[r.sc]
	if r.kind == EvConnector {
		ev.From, ev.To, ev.Value = sc.actPath(r.slot), sc.actPath(r.iter), r.flag
		return ev
	}
	ev.Path, ev.Iter = sc.actPath(r.slot), int(r.iter)
	switch r.kind {
	case EvStarted:
		ev.Program = sc.plan.acts[r.slot].act.Program
	case EvFinished:
		ev.RC = r.rc
		if !r.flag { // forced completions are not program executions
			ev.Program = sc.plan.acts[r.slot].act.Program
		}
	case EvForced:
		ev.RC = r.rc
	}
	return ev
}

// lastStamp returns the stamp of the trail's last event.
func (inst *Instance) lastStamp() int64 {
	if k := len(inst.stamps); k > 0 {
		return inst.stamps[k-1].at
	}
	return inst.at0
}

// tick reads the engine clock into inst.now.
func (inst *Instance) tick() { inst.now = inst.eng.clock() }

// event appends one record to the audit trail, stamping inst.now and the
// activity's current iteration, and hands the materialized Event to
// whoever listens.
func (inst *Instance) event(as *actState, r trailRec) {
	r.sc = -1
	if as != nil {
		r.sc, r.slot = as.sc, as.slot
		if r.kind != EvConnector {
			r.iter = as.iter
		}
	}
	switch n := len(inst.trail); {
	case n == 0:
		inst.at0 = inst.now
	case inst.now != inst.lastStamp():
		inst.stamps = append(inst.stamps, stampRun{from: n, at: inst.now})
	}
	if inst.trailBuf == nil {
		inst.trailBuf = trailPool.Get().(*[]trailRec)
		inst.trail = append(*inst.trailBuf, inst.trail...)
	}
	inst.trail = append(inst.trail, r)
	bus := inst.eng.bus.Active()
	if !bus && inst.eng.trailObs == nil {
		return
	}
	ev := inst.materialize(&r, inst.now)
	if bus {
		inst.publishTrail(ev, as)
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
		if act := inst.planOf(as).act; act.Kind == model.KindBlock && act.Name == compensationActivityName {
			bus.Publish(obs.Event{Kind: obs.EvCompensation, Instance: inst.id, Path: ev.Path, Iter: ev.Iter})
		}
	case EvFinished:
		bus.Publish(obs.Event{Kind: obs.EvActivityFinished, Instance: inst.id,
			Path: ev.Path, Iter: ev.Iter, Program: ev.Program, RC: ev.RC, DurNs: inst.progNs})
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

// dequeue takes the next activity off the queue, nil when it is empty.
// A drained queue starts over from its first element, so a queue that
// never holds more than a few activities at once never grows again.
func (inst *Instance) dequeue() *actState {
	if int(inst.qhead) == len(inst.queue) {
		return nil
	}
	as := inst.queue[inst.qhead]
	inst.queue[inst.qhead] = nil
	inst.qhead++
	if int(inst.qhead) == len(inst.queue) {
		inst.queue, inst.qhead = inst.queue[:0], 0
	}
	inst.eng.metrics.queueDepth.Add(-1)
	return as
}

// dropQueue empties the queue and lets go of its array.
func (inst *Instance) dropQueue() {
	inst.eng.metrics.queueDepth.Add(-int64(len(inst.queue) - int(inst.qhead)))
	inst.queue, inst.qhead = nil, 0
}

// completion carries a finished asynchronous program invocation back to
// the navigator goroutine.
type completion struct {
	as     *actState
	out    *model.Container
	progNs int64
	err    error
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
		for inst.err == nil {
			as := inst.dequeue()
			if as == nil {
				break
			}
			if as.state != StateReady {
				continue // stale entry (e.g. scope was reset)
			}
			inst.eng.metrics.navSteps.Inc()
			inst.tick()
			inst.runActivity(as)
		}
		if inst.inflight == 0 {
			inst.commitLog()
			inst.settle()
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
		inst.tick()
		if c.err != nil {
			var af *ActivityFailure
			if errors.As(c.err, &af) {
				inst.failActivity(af)
			} else {
				inst.fail(c.err)
			}
			continue
		}
		inst.finishActivity(c.as, c.out, c.progNs)
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
	as.readyNs = 0
	if inst.eng.bus.Active() {
		as.readyNs = obs.Now()
	}
	inst.event(as, trailRec{kind: EvReady})
	// A manual activity whose completion is logged replays as an automatic
	// one does: the person is not asked again. One whose completion is not
	// logged while the log ends in RecDone stays ready until recovery
	// cancels the instance again.
	if inst.planOf(as).act.Start == model.StartManual && inst.replayHit(as) == nil {
		if !inst.replayDone {
			inst.postWork(as)
		}
		return
	}
	inst.enqueue(as)
}

func (inst *Instance) postWork(as *actState) {
	if inst.eng.worklists == nil {
		inst.fail(fmt.Errorf("engine: manual activity %q requires an organization", inst.path(as)))
		return
	}
	inst.commitLog()
	if inst.err != nil {
		return
	}
	act := inst.planOf(as).act
	item, err := inst.eng.worklists.Post(org.WorkItem{
		Activity: inst.path(as), Instance: inst.id,
		ReadyAt:     inst.now,
		NotifyAfter: act.NotifySeconds, NotifyRole: act.NotifyRole,
	}, act.Staff.Role, act.Staff.Person)
	if err != nil {
		inst.fail(err)
		return
	}
	if inst.work == nil {
		inst.work = make(map[actKey]int64)
	}
	inst.work[actKey{as.sc, as.slot}] = item.ID
	inst.addPending(1)
	inst.event(as, trailRec{kind: EvWorkPosted})
}

func (inst *Instance) runActivity(as *actState) {
	as.state = StateRunning
	inst.event(as, trailRec{kind: EvStarted})

	sc := inst.scopeOf(as)
	ap := &sc.plan.acts[as.slot]
	switch ap.act.Kind {
	case model.KindProgram:
		// Recovery path: a logged completion replaces the program
		// invocation. Blocks and subprocesses always re-navigate (their
		// member completions replay individually), so a recovered run
		// produces the identical audit trail.
		if rec := inst.replayHit(as); rec != nil {
			inst.tick()
			out := ap.out.Clone()
			if err := out.Restore(rec.Values.Keys, rec.Values.Vals); err != nil {
				inst.fail(err)
				return
			}
			inst.finishActivity(as, out, 0)
			return
		}
		inst.runProgram(as, sc, ap)
	case model.KindBlock:
		in := inst.buildInput(sc, ap)
		if inst.err != nil {
			return
		}
		inst.startScope(inst.newScope(ap.block, in, as))
	case model.KindProcess:
		in := inst.buildInput(sc, ap)
		if inst.err != nil {
			return
		}
		sub := ap.sub.plan
		subIn := sub.input.Clone()
		_ = subIn.CopyCommon(in) // members whose kinds do not assign keep their defaults
		subIn.Freeze()
		inst.startScope(inst.newScope(sub, subIn, as))
	default:
		inst.fail(fmt.Errorf("engine: activity %q has invalid kind", inst.path(as)))
	}
}

func (inst *Instance) runProgram(as *actState, sc *scope, ap *actPlan) {
	in := inst.buildInput(sc, ap)
	if inst.err != nil {
		return
	}
	path, iter := sc.actPath(as.slot), as.iter
	inst.appendLog(wal.Record{
		Type: wal.RecStartedActivity, Instance: inst.id, Path: path, Iter: int(iter),
	})
	inst.commitLog() // the program body must not run ahead of the log
	if inst.err != nil {
		return
	}
	if inst.pool != nil {
		// Concurrent mode: run the program body on the worker pool; the
		// completion is folded back into navigation by pump. The attempt
		// loop is handed everything it reads, none of which changes while
		// the activity runs, so it is safe on the worker goroutine.
		inst.inflight++
		inst.eng.metrics.inflight.Add(1)
		pool := inst.pool
		go func() {
			pool <- struct{}{}
			out, ns, err := inst.executeAttempts(ap, path, iter, in)
			<-pool
			inst.completions <- completion{as: as, out: out, progNs: ns, err: err}
		}()
		return
	}
	final, ns, err := inst.executeAttempts(ap, path, iter, in)
	inst.tick()
	if err != nil {
		var af *ActivityFailure
		if errors.As(err, &af) {
			inst.failActivity(af)
		} else {
			inst.fail(err)
		}
		return
	}
	inst.finishActivity(as, final, ns)
}

// invPool lends every program attempt its Invocation: a program returns
// before its attempt ends, so the next attempt, of any instance, may reuse
// it. An attempt with a deadline copies it (invokeGuarded), because its
// goroutine can outlive the attempt.
var invPool = sync.Pool{New: func() any { return new(Invocation) }}

// executeAttempts drives the fault-tolerant invocation of one program
// activity — the iteration iter of the activity at path — on its input
// in: each attempt runs with panic isolation and the activity's optional
// deadline against a fresh output container (a failed attempt must not
// leak partial output into the next one); transient errors are retried
// under the activity's RetryPolicy with exponential backoff, and the final
// error is an *ActivityFailure recording the cause. It also returns the
// wall time of the attempts. It is called on the navigator goroutine in
// sequential mode and on a worker goroutine in concurrent mode, and reads
// nothing of the instance's navigation state.
func (inst *Instance) executeAttempts(ap *actPlan, path string, iter int32, in *model.Container) (*model.Container, int64, error) {
	m := inst.eng.metrics
	act, prog := ap.act, ap.prog
	budget := act.Retry.Attempts()
	br := inst.eng.breakerFor(act.Program)
	var lastErr error
	attempts := 0
	start := obs.Now()
	for attempt := 1; attempt <= budget; attempt++ {
		out := ap.out.Clone()
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
			inv := invPool.Get().(*Invocation)
			*inv = Invocation{
				InstanceID: inst.id, Path: path, Iter: int(iter),
				In: in, Out: out, Attempt: attempt,
			}
			err := invokeGuarded(prog, inv, act.DeadlineMS)
			*inv = Invocation{}
			invPool.Put(inv)
			if err == nil {
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
				ns := obs.Now() - start
				m.programNs.Observe(ns)
				return out, ns, nil
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
						Path: path, Iter: int(iter), Program: act.Program,
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
				inst.publishRetryExhausted(path, act.Program, attempt)
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
				Path: path, Iter: int(iter), Program: act.Program,
				N: int64(attempt), DurNs: backoff.Nanoseconds(), Cause: lastErr.Error()})
		}
		if backoff > 0 {
			inst.eng.sleep(backoff)
		}
	}
	m.invocations.Inc()
	m.progFailed.Inc()
	ns := obs.Now() - start
	m.programNs.Observe(ns)
	return nil, ns, &ActivityFailure{
		Path: path, Program: act.Program, Iter: int(iter),
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
//
// inv is only borrowed for the call (invPool): an attempt with a deadline
// hands its goroutine a copy of its own.
func invokeGuarded(prog Program, inv *Invocation, deadlineMS int64) error {
	if deadlineMS <= 0 {
		return runIsolated(prog, inv)
	}
	own := *inv
	done := make(chan error, 1)
	go func() { done <- runIsolated(prog, &own) }()
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

// buildInput materializes an activity's input container by pulling the
// data connectors that target it: scope input and the stored outputs of
// terminated source activities. Connectors from activities that never ran
// (dead paths) contribute nothing — the target sees declared defaults. An
// input no connector writes is the plan's frozen default itself, and every
// input is frozen: a program reads it and never writes it.
func (inst *Instance) buildInput(sc *scope, ap *actPlan) *model.Container {
	in := ap.in
	for _, d := range ap.dataIn {
		src := sc.input
		if d.from != scopeInput {
			src = sc.outputs[sc.plan.acts[d.from].keep] // nil when dead or not yet run
		}
		if src == nil {
			continue
		}
		if in == ap.in {
			in = in.Clone()
		}
		for i := range d.maps {
			if err := d.maps[i].copy(in, src); err != nil {
				inst.fail(err)
				return nil
			}
		}
	}
	if in != ap.in {
		in.Freeze()
	}
	return in
}

// finishActivity handles the transient finished state: log the completion,
// evaluate the exit condition, loop or terminate. progNs is the wall time
// of the program invocation that produced out (0 if none ran).
func (inst *Instance) finishActivity(as *actState, out *model.Container, progNs int64) {
	inst.appendLog(wal.Record{
		Type: wal.RecFinishedActivity, Instance: inst.id, Path: inst.path(as), Iter: int(as.iter),
		Values: recordValues(out),
	})
	inst.progNs = progNs
	inst.event(as, trailRec{kind: EvFinished, rc: out.RC(), flag: as.forced})

	if exit := inst.planOf(as).exit; exit != nil {
		ok, err := expr.EvalBool(exit, out)
		if err != nil {
			inst.fail(err)
			return
		}
		if !ok {
			// §3.2: "If false, the activity is rescheduled for execution."
			inst.eng.metrics.loops.Inc()
			inst.event(as, trailRec{kind: EvLooped})
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
	sc := inst.scopeOf(as)
	ap := &sc.plan.acts[as.slot]
	as.state = StateTerminated
	as.dead = dead
	if ap.keep >= 0 {
		sc.outputs[ap.keep] = out
	}
	if dead {
		inst.eng.metrics.deadPaths.Inc()
		inst.event(as, trailRec{kind: EvDeadPath})
	} else {
		inst.event(as, trailRec{kind: EvTerminated})
		inst.applyScopeOutput(sc, ap, out)
		if inst.err != nil {
			return
		}
	}
	for _, c := range ap.outgoing {
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
		inst.event(as, trailRec{kind: EvConnector, iter: c.to, flag: val})
		tgt := &sc.acts[c.to]
		tgt.connSeen++
		if val {
			tgt.connTrue++
		}
		inst.checkStart(tgt)
		if inst.err != nil {
			return
		}
	}
	sc.remaining--
	if sc.remaining == 0 {
		inst.scopeDone(sc)
	}
}

// applyScopeOutput pushes the activity's outputs into the scope output
// container along data connectors targeting the scope sink. The first
// write replaces the plan's frozen default with a copy of the scope's own.
func (inst *Instance) applyScopeOutput(sc *scope, ap *actPlan, out *model.Container) {
	if len(ap.dataOut) > 0 && sc.output.Frozen() {
		sc.output = sc.output.Clone()
	}
	for i := range ap.dataOut {
		if err := ap.dataOut[i].copy(sc.output, out); err != nil {
			inst.fail(err)
			return
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
	ap := inst.planOf(as)
	if as.connSeen < ap.incoming {
		return // §3.2: wait until all incoming connectors are evaluated
	}
	start := as.connTrue == ap.incoming
	if ap.act.Join == model.JoinOr {
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
		inst.event(nil, trailRec{kind: EvDone})
		inst.release()
		return
	}
	owner := sc.owner
	if ap := inst.planOf(owner); ap.act.Kind == model.KindProcess {
		// Bridge the subprocess output back into the owner's container.
		out := ap.out.Clone()
		_ = out.CopyCommon(sc.output) // members whose kinds do not assign keep their defaults
		inst.finishActivity(owner, out, 0)
		return
	}
	inst.finishActivity(owner, sc.output, 0)
}

// release drops what only navigation reads once RecDone is logged: every
// scope's input, the outputs of the inner scopes and of the activities,
// the queue, the work items and the replay index. A finished instance
// keeps its history — the trail, the activity states, the scopes' paths
// and the root output, which is all that Output, Snapshot, Activities,
// Trail, ProgramRuns and Trace read — and the interventions that reach
// navigation state refuse a finished instance before they do.
func (inst *Instance) release() {
	inst.dropQueue()
	inst.replay, inst.work, inst.replayDone = nil, nil, false
	for _, sc := range inst.scopes {
		sc.input, sc.outputs = nil, nil
		if sc != inst.root {
			sc.output = nil
		}
	}
}

// replayKey names one activity execution in the replay index.
type replayKey struct {
	path string
	iter int
}

// replayHit returns the logged completion of the activity's current
// iteration, if the log being recovered has one that carries an output.
func (inst *Instance) replayHit(as *actState) *wal.Record {
	if rec := inst.replay[replayKey{inst.path(as), int(as.iter)}]; rec != nil && rec.Values.Len() > 0 {
		return rec
	}
	return nil
}

// recordValues is a container's record form: the layout's paths and the
// container's own slots, neither copied — so no container is written once
// its record is queued.
func recordValues(c *model.Container) wal.Values {
	keys, vals := c.Vector()
	return wal.Values{Keys: keys, Vals: vals}
}
