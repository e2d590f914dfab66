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
	// input and output are the scope's containers holding their defaults,
	// frozen: a scope clones them instead of building containers by type
	// name, or shares them while nothing writes them.
	input, output *model.Container
	// names is the byte length of every activity name of the graph, the
	// part of a nested scope's joined paths that does not depend on the
	// scope's path (see scope.joined).
	names int
	// kept is how many activities a data connector reads the output of:
	// the length of a scope's outputs.
	kept int32
}

// actPlan is one activity of a plan.
type actPlan struct {
	act      *model.Activity
	in, out  *model.Container // the activity's containers holding their defaults, frozen like the scope's
	incoming int32            // number of incoming control connectors
	// nameOff is the byte length of the names of the activities in earlier
	// slots: where the activity's path lies in a nested scope's joined
	// paths.
	nameOff int32
	// keep is the activity's index in its scope's outputs when a data
	// connector reads its output, -1 when none does.
	keep     int32
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
	if p.input, err = defaults(types, g.In()); err != nil {
		return nil, err
	}
	if p.output, err = defaults(types, g.Out()); err != nil {
		return nil, err
	}
	slot := make(map[string]int32, len(g.Activities))
	for i, a := range g.Activities {
		slot[a.Name] = int32(i)
		ap := &p.acts[i]
		ap.act, ap.nameOff, ap.keep = a, int32(p.names), -1
		p.names += len(a.Name)
		if ap.in, err = defaults(types, a.In()); err != nil {
			return nil, err
		}
		if ap.out, err = defaults(types, a.Out()); err != nil {
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
		if p.acts[i].incoming == 0 {
			p.starts = append(p.starts, int32(i))
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
			if src := &p.acts[from]; src.keep < 0 {
				src.keep = p.kept
				p.kept++
			}
		}
		to := &p.acts[slot[d.To]]
		to.dataIn = append(to.dataIn, dataPlan{from: from, maps: d.Maps})
	}
	return p, nil
}

// defaults returns a frozen container of the named type holding its
// defaults.
func defaults(types *model.Types, typeName string) (*model.Container, error) {
	c, err := types.NewContainer(typeName)
	if err != nil {
		return nil, err
	}
	c.Freeze()
	return c, nil
}
