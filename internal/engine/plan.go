package engine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/model"
)

// template is one entry of the engine's process registry: the process as
// it was registered and the navigation plan compiled from it.
type template struct {
	proc   *model.Process
	plan   *plan
	manual bool // some activity, at any block depth, starts from a worklist
}

// plan is the buildtime half of a scope: everything navigation needs to
// know about one graph that does not change from instance to instance.
// RegisterProcess compiles it once — the paper's split between defining a
// template and instantiating it (§3.2) — and every scope over the graph,
// in every instance, is a slot-indexed view over the same plan: activity
// slot i of a scope is acts[i] here. A plan is never written after
// RegisterProcess returns, so instances on any number of goroutines share
// it without locks; the registered process and its type registry must not
// be modified either.
type plan struct {
	acts   []actPlan
	starts []int32 // slots of the activities without incoming control connectors
	// input and output are the scope's containers holding their defaults;
	// a scope clones them instead of building containers by type name.
	input, output *model.Container
	// events is how many trail events one pass over the graph records when
	// every activity executes once, blocks and subprocesses included: an
	// instance sizes its trail with it.
	events int
}

// actPlan is one activity of a plan.
type actPlan struct {
	act      *model.Activity
	in, out  *model.Container // the activity's containers holding their defaults, cloned like the scope's
	incoming int32            // number of incoming control connectors
	slot     int32            // index of the activity in its plan (and scope)
	outgoing []connPlan
	dataIn   []dataPlan             // data connectors targeting the activity
	dataOut  []*model.DataConnector // data connectors from the activity to the scope output

	prog  Program   // KindProgram: the registered program
	block *plan     // KindBlock: the embedded graph
	sub   *template // KindProcess: the invoked process
}

// connPlan is an outgoing control connector.
type connPlan struct {
	cond expr.Node // nil means TRUE
	to   int32     // slot of the target activity
}

// dataPlan is a data connector seen from its target activity.
type dataPlan struct {
	from int32 // slot of the source activity, or scopeInput
	maps []model.DataMap
}

// scopeInput is the dataPlan source standing for the scope's input
// container.
const scopeInput = -1

// compile builds the plan of a validated graph of the named process.
// Programs and subprocesses are resolved against what the engine has
// registered so far; the caller holds e.mu.
func (e *Engine) compile(g *model.Graph, types *model.Types, proc string) (*plan, error) {
	p := &plan{acts: make([]actPlan, len(g.Activities))}
	var err error
	if p.input, err = types.NewContainer(g.In()); err != nil {
		return nil, err
	}
	if p.output, err = types.NewContainer(g.Out()); err != nil {
		return nil, err
	}
	slot := make(map[string]int32, len(g.Activities))
	for i, a := range g.Activities {
		slot[a.Name] = int32(i)
		ap := &p.acts[i]
		ap.act, ap.slot = a, int32(i)
		if ap.in, err = types.NewContainer(a.In()); err != nil {
			return nil, err
		}
		if ap.out, err = types.NewContainer(a.Out()); err != nil {
			return nil, err
		}
		switch a.Kind {
		case model.KindProgram:
			if ap.prog = e.programs[a.Program]; ap.prog == nil {
				return nil, fmt.Errorf("engine: process %q activity %q uses unregistered program %q",
					proc, a.Name, a.Program)
			}
		case model.KindBlock:
			if ap.block, err = e.compile(a.Block, types, proc); err != nil {
				return nil, err
			}
		case model.KindProcess:
			if ap.sub = e.processes[a.Subprocess]; ap.sub == nil {
				return nil, fmt.Errorf("engine: process %q activity %q invokes unregistered process %q",
					proc, a.Name, a.Subprocess)
			}
		}
	}
	for _, c := range g.Control {
		to := slot[c.To]
		p.acts[to].incoming++
		from := &p.acts[slot[c.From]]
		from.outgoing = append(from.outgoing, connPlan{cond: c.Condition, to: to})
	}
	for i := range p.acts {
		ap := &p.acts[i]
		if ap.incoming == 0 {
			p.starts = append(p.starts, int32(i))
		}
		p.events += 4 + len(ap.outgoing) // ready, started, finished, terminated, connectors
		switch {
		case ap.block != nil:
			p.events += ap.block.events
		case ap.sub != nil:
			p.events += ap.sub.plan.events
		}
	}
	for _, d := range g.Data {
		if d.To == model.ScopeRef {
			from := &p.acts[slot[d.From]]
			from.dataOut = append(from.dataOut, d)
			continue
		}
		from := int32(scopeInput)
		if d.From != model.ScopeRef {
			from = slot[d.From]
		}
		to := &p.acts[slot[d.To]]
		to.dataIn = append(to.dataIn, dataPlan{from: from, maps: d.Maps})
	}
	return p, nil
}
