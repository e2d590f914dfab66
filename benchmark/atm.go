package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fdl"
	"repro/internal/fmtm"
	"repro/internal/rm"
)

// specText is the traffic every workload runs: the travel saga of §4.1
// and the Figure 3 flexible transaction of §4.2, compiled by FMTM.
const specText = `
SAGA 'travel'
  STEP 'book_flight' COMPENSATION 'cancel_flight'
  STEP 'book_hotel'  COMPENSATION 'cancel_hotel'
  STEP 'book_car'    COMPENSATION 'cancel_car'
END 'travel'

FLEXIBLE 'fig3'
  SUB 'F1' COMPENSATABLE COMPENSATION 'FC1'
  SUB 'F2' PIVOT
  SUB 'F3' RETRIABLE
  SUB 'F4' PIVOT
  SUB 'F5' COMPENSATABLE COMPENSATION 'FC5'
  SUB 'F6' COMPENSATABLE COMPENSATION 'FC6'
  SUB 'F7' RETRIABLE
  SUB 'F8' PIVOT
  PATH 'F1' 'F2' 'F4' 'F5' 'F6' 'F8'
  PATH 'F1' 'F2' 'F4' 'F7'
  PATH 'F1' 'F2' 'F3'
END 'fig3'
`

// abortP is the probability that one invocation of a subtransaction or
// compensation aborts. Retriable subtransactions and compensations are
// re-invoked with the next Iter, so they commit eventually; with 0.10
// every round holds committed, compensated and alternative-path
// instances.
const abortP = 0.10

// aborts decides one invocation from the seed alone, so an instance's
// outcome does not depend on which goroutine ran it or when.
func aborts(seed uint64, instanceID, name string, iter int) bool {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(instanceID))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0, byte(iter), byte(iter >> 8)})
	// FNV's high bits mix poorly on short inputs; finish with splitmix64.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < abortP
}

// nativeDecider replays the same decisions for the native executors:
// the k-th time a name is decided is the engine's Iter k.
type nativeDecider struct {
	seed  uint64
	id    string
	iters map[string]int
}

func (d *nativeDecider) Decide(name string) rm.Outcome {
	it := d.iters[name]
	d.iters[name] = it + 1
	if aborts(d.seed, d.id, name, it) {
		return rm.Abort
	}
	return rm.Commit
}

// compiled is the output of one run of the Figure 5 pipeline plus what
// the benchmark needs to register it with an engine.
type compiled struct {
	res      *fmtm.PipelineResult
	saga     *saga.Spec
	flex     *flexible.Spec
	programs []string // every subtransaction and compensation name
	isComp   map[string]bool

	pipelineDur time.Duration
	parseDur    time.Duration
}

func compile() (*compiled, error) {
	start := time.Now()
	res, err := fmtm.Pipeline(specText)
	if err != nil {
		return nil, err
	}
	c := &compiled{res: res, pipelineDur: time.Since(start), isComp: map[string]bool{}}
	// fdl.parse_ms: the import stage alone, on the FDL the pipeline emitted.
	start = time.Now()
	if _, err := fdl.Parse(res.FDL); err != nil {
		return nil, err
	}
	c.parseDur = time.Since(start)
	if len(res.Specs.Sagas) != 1 || len(res.Specs.Flexible) != 1 {
		return nil, fmt.Errorf("spec text: want one saga and one flexible transaction")
	}
	c.saga, c.flex = res.Specs.Sagas[0], res.Specs.Flexible[0]
	for _, st := range c.saga.Steps {
		c.programs = append(c.programs, st.Name, st.Compensation)
		c.isComp[st.Compensation] = true
	}
	for _, sub := range c.flex.Subs {
		c.programs = append(c.programs, sub.Name)
		if sub.Compensation != "" {
			c.programs = append(c.programs, sub.Compensation)
			c.isComp[sub.Compensation] = true
		}
	}
	return c, nil
}

// processOf alternates the two models: even ops run the saga, odd ops
// the flexible transaction.
func (c *compiled) processOf(op int) string {
	if op%2 == 0 {
		return c.saga.Name
	}
	return c.flex.Name
}

// newEngine builds an engine with the compiled templates and the
// benchmark's programs. wrap, when non-nil, decorates each program (the
// traced run records program.run spans there).
func (c *compiled) newEngine(seed uint64, wrap func(engine.ProgramFunc) engine.ProgramFunc, opts ...engine.Option) (*engine.Engine, error) {
	e := engine.New(opts...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		return nil, err
	}
	for _, name := range c.programs {
		name := name
		p := engine.ProgramFunc(func(inv *engine.Invocation) error {
			if aborts(seed, inv.InstanceID, name, inv.Iter) {
				inv.Out.SetRC(1)
			} else {
				inv.Out.SetRC(0)
			}
			return nil
		})
		if wrap != nil {
			p = wrap(p)
		}
		if err := e.RegisterProgram(name, p); err != nil {
			return nil, err
		}
	}
	if err := fmtm.Install(e, c.res.File); err != nil {
		return nil, err
	}
	return e, nil
}

// instanceIDs returns the IDs a fresh engine assigns to its first n
// instances. Every round uses a fresh engine and one submitting
// goroutine, so op k always runs as ids[k] and its seeded decisions are
// the same in every round and every run.
func instanceIDs(n int) []string {
	e := engine.New()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = e.NewInstanceID()
	}
	return ids
}

// expectation is what the native executor of an op's model does under
// the op's seeded decisions.
type expectation struct {
	history     []rm.Event
	compensated bool // at least one compensation ran
}

// oracle runs every op through internal/atm/saga or
// internal/atm/flexible, outside any engine.
func (c *compiled) oracle(seed uint64, ids []string) ([]expectation, error) {
	sagaBind := fmtm.PureSagaBinding(c.saga)
	flexBind := fmtm.PureFlexibleBinding(c.flex)
	out := make([]expectation, len(ids))
	for op, id := range ids {
		dec := &nativeDecider{seed: seed, id: id, iters: map[string]int{}}
		rec := &rm.Recorder{}
		var err error
		if c.processOf(op) == c.saga.Name {
			_, err = (&saga.Executor{Decider: dec}).Execute(c.saga, sagaBind, rec)
		} else {
			_, err = (&flexible.Executor{Decider: dec}).Execute(c.flex, flexBind, rec)
		}
		if err != nil {
			return nil, fmt.Errorf("native executor, op %d: %w", op, err)
		}
		out[op].history = rec.Events()
		for _, ev := range out[op].history {
			if c.isComp[ev.Name] {
				out[op].compensated = true
			}
		}
	}
	return out, nil
}

// historyOf extracts the transactional history of an engine instance:
// its program runs minus the generated null activities.
func historyOf(inst *engine.Instance) []rm.Event {
	runs := inst.ProgramRuns()
	out := make([]rm.Event, 0, len(runs))
	for _, r := range runs {
		if r.Program == fmtm.CopyName || r.Program == engine.NOPName {
			continue
		}
		kind := rm.EvCommit
		if r.RC != 0 {
			kind = rm.EvAbort
		}
		out = append(out, rm.Event{Name: r.Program, Kind: kind})
	}
	return out
}

// check verifies one finished instance against the native executor's
// history, and the saga guarantee on compensated sagas.
func (c *compiled) check(op int, inst *engine.Instance, want expectation) error {
	if inst == nil {
		return fmt.Errorf("op %d: no instance", op)
	}
	if !inst.Finished() {
		status, cause := inst.StatusInfo()
		return fmt.Errorf("op %d (%s): %s %s", op, inst.ID(), status, cause)
	}
	got := historyOf(inst)
	if len(got) != len(want.history) {
		return fmt.Errorf("op %d (%s): history %v, native executor gave %v", op, inst.ID(), got, want.history)
	}
	for i := range got {
		if got[i] != want.history[i] {
			return fmt.Errorf("op %d (%s): history %v, native executor gave %v", op, inst.ID(), got, want.history)
		}
	}
	if want.compensated && inst.ProcessName() == c.saga.Name {
		if err := saga.CheckGuarantee(c.saga, got); err != nil {
			return fmt.Errorf("op %d (%s): %w", op, inst.ID(), err)
		}
	}
	return nil
}
