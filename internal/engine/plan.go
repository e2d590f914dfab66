package engine

import (
	"fmt"
	"strings"

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
	exit     expr.Node  // the exit condition bound to out's slots; nil means none
	dataIn   []dataPlan // data connectors targeting the activity
	// dataOut holds the member maps of the data connectors from the
	// activity to the scope output, in declaration order.
	dataOut []dataMap

	prog  Program   // KindProgram: the registered program
	block *plan     // KindBlock: the embedded graph
	sub   *template // KindProcess: the invoked process

	// joined and pathLen are the joined paths of the scope a block or
	// process activity opens when it and every activity above it run their
	// iteration 0 (see scope.joined): the same in every instance, so such
	// a scope shares them instead of building its own.
	joined  string
	pathLen int32
}

// connPlan is an outgoing control connector.
type connPlan struct {
	cond expr.Node // bound to the source output's slots; nil means TRUE
	to   int32     // slot of the target activity
}

// dataPlan is a data connector seen from its target activity.
type dataPlan struct {
	from int32 // slot of the source activity, or scopeInput
	maps []dataMap
}

// dataMap is a member map of a data connector with both paths resolved to
// slots: of the source's container and of the target's.
type dataMap struct{ from, to int32 }

// copy copies the mapped member of src into dst.
func (d dataMap) copy(dst, src *model.Container) error {
	return dst.CopySlot(src, int(d.from), int(d.to))
}

// resolve resolves the member maps of a data connector from src's
// containers to dst's. Validation has resolved every path against the same
// types, so a path without a slot is a fault of the engine's.
func resolve(maps []model.DataMap, src, dst *model.Container) ([]dataMap, error) {
	out := make([]dataMap, len(maps))
	for i, m := range maps {
		from, okFrom := src.SlotOf(m.FromPath)
		to, okTo := dst.SlotOf(m.ToPath)
		if !okFrom || !okTo {
			return nil, fmt.Errorf("engine: data map %q -> %q has no slot in %q -> %q",
				m.FromPath, m.ToPath, src.Type().Name, dst.Type().Name)
		}
		out[i] = dataMap{from: int32(from), to: int32(to)}
	}
	return out, nil
}

// bind binds a condition evaluated against containers of c's type to their
// slots.
func bind(n expr.Node, c *model.Container) expr.Node {
	if n == nil {
		return nil
	}
	return expr.Bind(n, func(path []string) (int, bool) { return c.SlotOf(strings.Join(path, ".")) })
}

// scopeInput is the dataPlan source standing for the scope's input
// container.
const scopeInput = -1

// compile builds the plan of a validated graph of the named process, whose
// scope has the path path when every activity above it runs its iteration
// 0 ("" for the root). Programs and subprocesses are resolved against what
// the engine has registered so far; the caller holds e.mu.
func (e *Engine) compile(g *model.Graph, defs *defaults, proc, path string) (*plan, error) {
	p := &plan{acts: make([]actPlan, len(g.Activities))}
	var err error
	if p.input, err = defs.of(g.In()); err != nil {
		return nil, err
	}
	if p.output, err = defs.of(g.Out()); err != nil {
		return nil, err
	}
	slot := make(map[string]int32, len(g.Activities))
	for i, a := range g.Activities {
		slot[a.Name] = int32(i)
		ap := &p.acts[i]
		ap.act, ap.nameOff, ap.keep = a, int32(p.names), -1
		p.names += len(a.Name)
		if ap.in, err = defs.of(a.In()); err != nil {
			return nil, err
		}
		if ap.out, err = defs.of(a.Out()); err != nil {
			return nil, err
		}
		ap.exit = bind(a.Exit, ap.out)
		switch a.Kind {
		case model.KindProgram:
			if ap.prog = e.programs[a.Program]; ap.prog == nil {
				return nil, fmt.Errorf("engine: process %q activity %q uses unregistered program %q",
					proc, a.Name, a.Program)
			}
		case model.KindBlock:
			own := childPath(path, a.Name)
			if ap.block, err = e.compile(a.Block, defs, proc, own+"#0"); err != nil {
				return nil, err
			}
			ap.joined, ap.pathLen = joinPaths(ap.block, own, 0)
		case model.KindProcess:
			if ap.sub = e.processes[a.Subprocess]; ap.sub == nil {
				return nil, fmt.Errorf("engine: process %q activity %q invokes unregistered process %q",
					proc, a.Name, a.Subprocess)
			}
			ap.joined, ap.pathLen = joinPaths(ap.sub.plan, childPath(path, a.Name), 0)
		}
	}
	for _, c := range g.Control {
		to := slot[c.To]
		p.acts[to].incoming++
		from := &p.acts[slot[c.From]]
		from.outgoing = append(from.outgoing, connPlan{cond: bind(c.Condition, from.out), to: to})
	}
	for i := range p.acts {
		if p.acts[i].incoming == 0 {
			p.starts = append(p.starts, int32(i))
		}
	}
	for _, d := range g.Data {
		if d.To == model.ScopeRef {
			from := &p.acts[slot[d.From]]
			maps, err := resolve(d.Maps, from.out, p.output)
			if err != nil {
				return nil, err
			}
			from.dataOut = append(from.dataOut, maps...)
			continue
		}
		from, src := int32(scopeInput), p.input
		if d.From != model.ScopeRef {
			from = slot[d.From]
			if src = p.acts[from].out; p.acts[from].keep < 0 {
				p.acts[from].keep = p.kept
				p.kept++
			}
		}
		to := &p.acts[slot[d.To]]
		maps, err := resolve(d.Maps, src, to.in)
		if err != nil {
			return nil, err
		}
		to.dataIn = append(to.dataIn, dataPlan{from: from, maps: maps})
	}
	return p, nil
}

// childPath is the path of the named activity of a scope whose path is
// path ("" for the root).
func childPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "/" + name
}

// defaults hands out the frozen container holding the defaults of each
// type of a process's registry, built once per registration: every scope
// and activity of the process whose containers are of that type shares it,
// as nothing writes a frozen container.
type defaults struct {
	types  *model.Types
	byName map[string]*model.Container
}

func (d *defaults) of(typeName string) (*model.Container, error) {
	if c, ok := d.byName[typeName]; ok {
		return c, nil
	}
	c, err := d.types.NewContainer(typeName)
	if err != nil {
		return nil, err
	}
	c.Freeze()
	d.byName[typeName] = c
	return c, nil
}
