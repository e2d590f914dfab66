package model

import (
	"fmt"

	"repro/internal/expr"
)

// ValidationError collects all problems found in a process definition.
type ValidationError struct {
	Process string
	Issues  []string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if len(e.Issues) == 1 {
		return fmt.Sprintf("model: process %q invalid: %s", e.Process, e.Issues[0])
	}
	return fmt.Sprintf("model: process %q invalid: %d issues, first: %s", e.Process, len(e.Issues), e.Issues[0])
}

// Validate checks the structural and semantic legality of the process
// definition: unique names, resolvable endpoints, acyclic control flow per
// scope, type-correct data maps and conditions that reference existing
// members. known lists the process names available for process activities;
// pass nil to skip subprocess resolution (e.g. when validating templates in
// isolation before import).
func (p *Process) Validate(known map[string]bool) error {
	v := &validator{p: p, known: known}
	if p.Name == "" {
		v.errf("empty process name")
	}
	if p.Types == nil {
		v.errf("nil type registry")
		return v.result()
	}
	if err := p.Types.CheckCycles(); err != nil {
		v.errf("%v", err)
	}
	v.checkGraph(&p.Graph, nil)
	return v.result()
}

type validator struct {
	p     *Process
	known map[string]bool
	iss   []string
}

func (v *validator) errf(format string, args ...any) {
	v.iss = append(v.iss, fmt.Sprintf(format, args...))
}

func (v *validator) result() error {
	if len(v.iss) == 0 {
		return nil
	}
	return &ValidationError{Process: v.p.Name, Issues: v.iss}
}

// place names the part of a process an issue is about: "process",
// `process activity "A"`, `process connector "A" -> "B" transition
// condition`, ... It is spelled out only when an issue is recorded, so
// validating a valid process formats no string.
type place struct {
	scope    *place // the block activity whose body this is; nil: the process
	kind     string // "activity", "connector" or "data connector"; "": the scope itself
	from, to string // the activity, or the connector's endpoints
	suffix   string // " input", " exit condition", ...
}

func (p place) String() string {
	s := "process"
	if p.scope != nil {
		s = p.scope.String()
	}
	switch p.kind {
	case "activity":
		s = fmt.Sprintf("%s activity %q", s, p.from)
	case "connector", "data connector":
		s = fmt.Sprintf("%s %s %q -> %q", s, p.kind, p.from, p.to)
	}
	return s + p.suffix
}

// with returns p with suffix appended to its name.
func (p place) with(suffix string) place {
	p.suffix += suffix
	return p
}

func (v *validator) checkType(name string, where place) {
	if name == "" {
		return
	}
	if _, ok := v.p.Types.Lookup(name); !ok {
		v.errf("%s references unknown structure %q", where, name)
	}
}

// checkGraph checks the body of scope (nil: the process itself).
func (v *validator) checkGraph(g *Graph, scope *place) {
	self := place{scope: scope}
	v.checkType(g.InputType, self.with(" input"))
	v.checkType(g.OutputType, self.with(" output"))

	names := make(map[string]*Activity, len(g.Activities))
	for _, a := range g.Activities {
		where := place{scope: scope, kind: "activity", from: a.Name}
		if a.Name == "" {
			v.errf("%s has an activity with empty name", self)
			continue
		}
		if _, dup := names[a.Name]; dup {
			v.errf("%s: duplicate activity name", where)
			continue
		}
		names[a.Name] = a
		switch a.Kind {
		case KindProgram:
			if a.Program == "" {
				v.errf("%s: program activity without program", where)
			}
		case KindProcess:
			if a.Subprocess == "" {
				v.errf("%s: process activity without subprocess", where)
			} else if v.known != nil && !v.known[a.Subprocess] {
				v.errf("%s: unknown subprocess %q", where, a.Subprocess)
			}
			if a.Subprocess == v.p.Name {
				v.errf("%s: process activity invokes its own process (recursion not allowed)", where)
			}
		case KindBlock:
			if a.Block == nil {
				v.errf("%s: block without body", where)
			} else {
				// Block containers are the activity containers.
				if a.Block.InputType != a.InputType || a.Block.OutputType != a.OutputType {
					v.errf("%s: block scope types must equal the activity container types", where)
				}
				block := where
				v.checkGraph(a.Block, &block)
			}
		default:
			v.errf("%s: invalid kind %v", where, a.Kind)
		}
		v.checkType(a.InputType, where.with(" input"))
		v.checkType(a.OutputType, where.with(" output"))
		if a.Exit != nil {
			v.checkCond(a.Exit, a.Out(), where.with(" exit condition"))
		}
		if a.Start == StartManual && a.Staff.IsZero() {
			v.errf("%s: manual start requires a staff assignment", where)
		}
		if a.NotifySeconds < 0 {
			v.errf("%s: negative notification deadline", where)
		}
		if a.Retry != nil {
			if a.Kind != KindProgram {
				v.errf("%s: retry policy on a non-program activity", where)
			}
			if a.Retry.MaxAttempts < 0 || a.Retry.BackoffMS < 0 {
				v.errf("%s: retry policy fields must be non-negative", where)
			}
		}
		if a.DeadlineMS < 0 {
			v.errf("%s: negative program deadline", where)
		}
		if a.DeadlineMS > 0 && a.Kind != KindProgram {
			v.errf("%s: program deadline on a non-program activity", where)
		}
		if a.NotifySeconds > 0 && a.NotifyRole == "" {
			v.errf("%s: notification deadline without a role to notify", where)
		}
	}

	// Control connectors.
	type edge struct{ from, to string }
	seen := make(map[edge]bool)
	for _, c := range g.Control {
		where := place{scope: scope, kind: "connector", from: c.From, to: c.To}
		from, okF := names[c.From]
		if !okF {
			v.errf("%s: unknown source activity", where)
		}
		if _, okT := names[c.To]; !okT {
			v.errf("%s: unknown target activity", where)
		}
		if c.From == c.To {
			v.errf("%s: self loop", where)
		}
		if seen[edge{c.From, c.To}] {
			v.errf("%s: duplicate connector", where)
		}
		seen[edge{c.From, c.To}] = true
		if c.Condition != nil && okF {
			v.checkCond(c.Condition, from.Out(), where.with(" transition condition"))
		}
	}
	v.checkAcyclic(g, self, names)

	// Data connectors.
	for _, d := range g.Data {
		where := place{scope: scope, kind: "data connector", from: d.From, to: d.To}
		var srcType, dstType string
		switch {
		case d.From == ScopeRef:
			srcType = g.In()
		case names[d.From] != nil:
			srcType = names[d.From].Out()
		default:
			v.errf("%s: unknown source", where)
			continue
		}
		switch {
		case d.To == ScopeRef:
			dstType = g.Out()
		case names[d.To] != nil:
			dstType = names[d.To].In()
		default:
			v.errf("%s: unknown target", where)
			continue
		}
		if d.From == ScopeRef && d.To == ScopeRef {
			v.errf("%s: maps scope input directly to scope output", where)
		}
		if len(d.Maps) == 0 {
			v.errf("%s: no member maps", where)
		}
		for _, m := range d.Maps {
			fk, err := v.p.Types.ResolvePath(srcType, splitPath(m.FromPath))
			if err != nil {
				v.errf("%s: source path %q: %v", where, m.FromPath, err)
				continue
			}
			tk, err := v.p.Types.ResolvePath(dstType, splitPath(m.ToPath))
			if err != nil {
				v.errf("%s: target path %q: %v", where, m.ToPath, err)
				continue
			}
			if fk != tk && !(fk == Long && tk == Float) {
				v.errf("%s: map %q(%s) -> %q(%s) is not assignment compatible",
					where, m.FromPath, fk, m.ToPath, tk)
			}
		}
	}
}

// checkCond verifies that every member referenced by the condition resolves
// to a scalar within the container type.
func (v *validator) checkCond(n expr.Node, containerType string, where place) {
	for _, ref := range expr.Refs(n) {
		if _, err := v.p.Types.ResolvePath(containerType, ref); err != nil {
			v.errf("%s: %v", where, err)
		}
	}
}

// checkAcyclic verifies the control graph of one scope is a DAG (§3.2: a
// workflow model is an acyclic directed graph; loops are expressed with
// exit conditions, not back edges).
func (v *validator) checkAcyclic(g *Graph, scope place, names map[string]*Activity) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(names))
	var visit func(n string) bool
	visit = func(n string) bool {
		switch color[n] {
		case grey:
			return false
		case black:
			return true
		}
		color[n] = grey
		for _, c := range g.Outgoing(n) {
			if _, ok := names[c.To]; !ok {
				continue
			}
			if !visit(c.To) {
				return false
			}
		}
		color[n] = black
		return true
	}
	for name := range names {
		if !visit(name) {
			v.errf("%s: control flow contains a cycle through %q", scope, name)
			return
		}
	}
}

func splitPath(p string) []string {
	if p == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '.' {
			out = append(out, p[start:i])
			start = i + 1
		}
	}
	return out
}
