// Package engine implements the workflow navigation engine: the FlowMark
// runtime semantics of §3.2 of "Advanced Transaction Models in Workflow
// Contexts". It executes process templates defined with the model package,
// honoring activity states (ready / running / finished / terminated),
// AND/OR start conditions evaluated only after every incoming control
// connector has a truth value, transition conditions, exit-condition loops,
// dead path elimination, nested blocks and process activities, container
// data flow, manual activities with worklists, and write-ahead logging with
// forward recovery.
//
// Navigation is deterministic: the engine pumps a FIFO queue of navigation
// tasks and invokes programs synchronously, so the same template with the
// same program outcomes always yields the same audit trail. Determinism is
// what makes log replay (see Recover) exact.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/org"
	"repro/internal/wal"
)

// Invocation is the context handed to a program when its activity runs.
// A program may use it, and write Out, only until Run returns: the engine
// reuses the Invocation for later attempts and logs Out as it is then.
type Invocation struct {
	InstanceID string
	// Path identifies the activity execution within the instance, e.g.
	// "Forward#0/book_flight". Block and subprocess segments carry their
	// iteration number.
	Path string
	// Iter is the activity's own exit-condition iteration (0 on the first
	// execution).
	Iter int
	// In is the activity input container. It is frozen: a write through
	// it fails (Set returns model.ErrReadOnly, SetRC panics, and the panic
	// fails the activity), because inputs may be shared with other
	// activities and instances.
	In *model.Container
	// Out is the output container the program fills in; set RC to 0 for
	// commit and non-zero for abort.
	Out *model.Container
	// Attempt is the 1-based invocation attempt under the activity's
	// retry policy (1 unless a previous attempt failed transiently).
	Attempt int
}

// Program is an application registered with the engine and invoked by
// program activities. Returning an error signals an infrastructure failure
// (the instance stops with that error); transactional aborts are reported
// through Out's RC member instead.
type Program interface {
	Run(inv *Invocation) error
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(inv *Invocation) error

// Run implements Program.
func (f ProgramFunc) Run(inv *Invocation) error { return f(inv) }

// NOP is the no-operation program used by generated compensation blocks
// (the "null activity" of Figure 2); it commits immediately.
var NOP Program = ProgramFunc(func(inv *Invocation) error {
	inv.Out.SetRC(0)
	return nil
})

// NOPName is the program name under which translators expect NOP to be
// registered.
const NOPName = "nop"

// Engine holds the registered programs, process templates and the optional
// organizational directory. It is safe for concurrent use; individual
// instances are single-threaded.
type Engine struct {
	mu        sync.RWMutex
	programs  map[string]Program
	processes map[string]*template

	dir       *org.Directory
	worklists *org.Worklists

	clock       func() int64
	sleep       func(time.Duration)
	concurrency int
	nextID      atomic.Int64
	metrics     *engineMetrics
	bus         *obs.Bus

	breakerFactory func(program string) Breaker
	breakerMu      sync.Mutex
	breakers       map[string]Breaker
	retryBudget    *RetryBudget

	trailObs func(inst *Instance, ev Event)

	instMu    sync.Mutex
	instances []*Instance
}

// Option configures an Engine.
type Option func(*Engine)

// WithOrganization attaches an organization directory; manual activities
// post work items to its worklists.
func WithOrganization(dir *org.Directory) Option {
	return func(e *Engine) {
		e.dir = dir
		e.worklists = org.NewWorklists(dir)
	}
}

// WithClock replaces the engine clock (seconds; the default is wall-clock
// time), which stamps the audit trail (Event.At) and work items' ReadyAt.
// An instance reads it on entry to Start, SelectWork, ForceFinish and
// Cancel, once per navigation step, and once per program completion —
// run inline, replayed from the log, or folded in from the worker pool —
// and every event and work item until the next read shares that stamp.
func WithClock(clock func() int64) Option {
	return func(e *Engine) { e.clock = clock }
}

// WithSleep replaces the sleep function used for retry backoff between
// program invocation attempts; the default is time.Sleep. Tests inject a
// recording no-op sleep so backoff schedules can be asserted without
// slowing the suite down.
func WithSleep(sleep func(time.Duration)) Option {
	return func(e *Engine) { e.sleep = sleep }
}

// WithConcurrency sets the program worker pool size of new instances.
// With n <= 1 (the default), navigation is fully sequential and
// deterministic — recovered instances reproduce the identical audit
// trail. With n > 1, independent program activities execute concurrently
// on a pool of n workers; navigation itself remains single-threaded, so
// the §3.2 semantics are unchanged, but the interleaving of parallel
// branches (and therefore trail order) is non-deterministic.
func WithConcurrency(n int) Option {
	return func(e *Engine) { e.concurrency = n }
}

// WithMetrics points the engine's instrumentation at the given registry
// instead of obs.Default — tests assert exact counts against a fresh
// registry, embedders can segregate engines. The metric names are listed
// in DESIGN.md ("Observability").
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) { e.metrics = newEngineMetrics(reg) }
}

// WithBus points the engine's real-time event publishing at the given
// bus instead of obs.DefaultBus — tests subscribe to a private bus,
// embedders can segregate engines. The event taxonomy is listed in
// DESIGN.md ("Observability"). Publishing costs one atomic load while
// nothing is subscribed or attached to the bus.
func WithBus(b *obs.Bus) Option {
	return func(e *Engine) { e.bus = b }
}

// WithTrailObserver registers fn to be called synchronously after every
// audit-trail append, on the goroutine that navigates the instance (with
// the default concurrency of 1 that is the instance's single navigator
// goroutine, so fn may call inst.Snapshot for a consistent view). It is
// the as-of-T seam of the queryable-history layer: because recovery is
// deterministic re-navigation that reproduces the identical trail,
// replaying an instance under an observer revisits every historical
// trail boundary in order — internal/history captures "state of X as of
// boundary k" here, and the E13 soak runs the same observer on a live
// instance as the equality oracle. Instances of a fleet navigate on
// several goroutines at once, and so do those RecoverShards and
// RecoverFleet resume (one worker per shard), so fn must be safe to call
// concurrently for different instances.
func WithTrailObserver(fn func(inst *Instance, ev Event)) Option {
	return func(e *Engine) { e.trailObs = fn }
}

// New returns an engine with the NOP program pre-registered.
func New(opts ...Option) *Engine {
	e := &Engine{
		programs:  map[string]Program{NOPName: NOP},
		processes: make(map[string]*template),
		clock:     func() int64 { return time.Now().Unix() },
		sleep:     time.Sleep,
	}
	for _, o := range opts {
		o(e)
	}
	if e.metrics == nil {
		e.metrics = newEngineMetrics(obs.Default)
	}
	if e.bus == nil {
		e.bus = obs.DefaultBus
	}
	return e
}

// Metrics returns the registry this engine records into.
func (e *Engine) Metrics() *obs.Registry { return e.metrics.reg }

// Bus returns the event bus this engine publishes into.
func (e *Engine) Bus() *obs.Bus { return e.bus }

// RegisterProgram makes a program invocable from program activities. As in
// FlowMark, "once a program is registered it can be invoked from any
// activity".
func (e *Engine) RegisterProgram(name string, p Program) error {
	if name == "" || p == nil {
		return errors.New("engine: program must have a name and an implementation")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.programs[name]; dup {
		return fmt.Errorf("engine: program %q already registered", name)
	}
	e.programs[name] = p
	return nil
}

// Program returns the registered program, or nil.
func (e *Engine) Program(name string) Program {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.programs[name]
}

// RegisterProcess validates a process template, compiles its navigation
// plan and installs both. Subprocess references are resolved against the
// templates registered so far, so register bottom-up. Registration is the
// end of buildtime for the template: the process, its graphs and its type
// registry must not be modified afterwards — every instance navigates the
// plan compiled here.
func (e *Engine) RegisterProcess(p *model.Process) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.processes[p.Name]; dup {
		return fmt.Errorf("engine: process %q already registered", p.Name)
	}
	known := make(map[string]bool, len(e.processes)+1)
	for name := range e.processes {
		known[name] = true
	}
	known[p.Name] = true
	if err := p.Validate(known); err != nil {
		return err
	}
	pl, err := e.compile(&p.Graph, p.Types, p.Name)
	if err != nil {
		return err
	}
	e.processes[p.Name] = &template{proc: p, plan: pl, manual: hasManual(&p.Graph)}
	return nil
}

// Process returns a registered process template.
func (e *Engine) Process(name string) (*model.Process, bool) {
	tpl, ok := e.template(name)
	if !ok {
		return nil, false
	}
	return tpl.proc, true
}

func (e *Engine) template(name string) (*template, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	tpl, ok := e.processes[name]
	return tpl, ok
}

// Worklists exposes the engine's worklist manager (nil when no organization
// was attached).
func (e *Engine) Worklists() *org.Worklists { return e.worklists }

// Directory exposes the attached organization directory (nil when absent).
func (e *Engine) Directory() *org.Directory { return e.dir }

// CreateInstance instantiates a registered process template. input provides
// initial values for the process input container (nil for all defaults);
// log receives the navigation records (pass nil for an in-memory log).
func (e *Engine) CreateInstance(process string, input map[string]expr.Value, log wal.Log) (*Instance, error) {
	return e.CreateInstanceID(process, e.NewInstanceID(), input, log)
}

// NewInstanceID reserves and returns the next engine-assigned instance
// ID ("inst-N") without creating an instance. Sharded placement needs
// the ID before creation — a Fleet hashes the ID to pick the shard and
// must create the instance against that shard's log (ShardFor).
func (e *Engine) NewInstanceID() string {
	return fmt.Sprintf("inst-%d", e.nextID.Add(1))
}

// CreateInstanceID is CreateInstance with a caller-supplied instance ID,
// normally one reserved via NewInstanceID. The caller owns uniqueness:
// reusing a live ID corrupts log demultiplexing and recovery.
func (e *Engine) CreateInstanceID(process, id string, input map[string]expr.Value, log wal.Log) (*Instance, error) {
	tpl, ok := e.template(process)
	if !ok {
		return nil, fmt.Errorf("engine: unknown process %q", process)
	}
	if tpl.manual && e.worklists == nil {
		return nil, fmt.Errorf("engine: process %q has manual activities but no organization is attached", process)
	}
	if log == nil {
		log = &wal.MemLog{}
	}
	in := tpl.plan.input // the frozen defaults, shared while no value differs
	if len(input) > 0 {
		in = in.Clone()
		for k, v := range input {
			if err := in.Set(k, v); err != nil {
				return nil, err
			}
		}
		in.Freeze()
	}
	inst := newInstance(e, id, tpl, in, log)
	e.metrics.instCreated.Inc()
	e.bus.Publish(obs.Event{Kind: obs.EvInstanceCreated, Instance: id, Program: process})
	e.instMu.Lock()
	e.instances = append(e.instances, inst)
	e.instMu.Unlock()
	return inst, nil
}

// InstanceInfo is one row of the engine's instance monitor (§3.3
// monitoring).
type InstanceInfo struct {
	ID      string
	Process string
	// Status: "created" (not started), "running" (started, waiting on
	// manual work or mid-navigation), "finished", or "failed".
	Status string
	// Cause is the failure cause message for "failed" instances, ""
	// otherwise.
	Cause       string
	PendingWork int
}

// Instances returns a monitoring snapshot of every instance created by
// this engine, in creation order. It is safe to call from any goroutine,
// including while instances are being driven concurrently — instance
// status is read under the per-instance status lock.
func (e *Engine) Instances() []InstanceInfo {
	e.instMu.Lock()
	insts := append([]*Instance(nil), e.instances...)
	e.instMu.Unlock()
	out := make([]InstanceInfo, 0, len(insts))
	for _, inst := range insts {
		status, cause := inst.StatusInfo()
		out = append(out, InstanceInfo{
			ID: inst.id, Process: inst.tpl.proc.Name,
			Status: status, Cause: cause, PendingWork: inst.PendingWork(),
		})
	}
	return out
}

func hasManual(g *model.Graph) bool {
	for _, a := range g.Activities {
		if a.Start == model.StartManual {
			return true
		}
		if a.Kind == model.KindBlock && a.Block != nil && hasManual(a.Block) {
			return true
		}
	}
	return false
}
