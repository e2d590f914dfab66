package fdl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/model"
)

// This file implements the static reachability query class of wfquery
// ("wfquery reach"): over a compiled process graph, can activity X ever
// run in an execution where activity Y terminated with a given outcome?
// The analysis is a may-run fixpoint with three-valued connector
// evaluation and is a sound over-approximation: a "no" is definitive
// (no execution exists), a "yes" means no proof of impossibility was
// found. It understands exactly the structure the FMTM translations
// emit — RC/State_k comparisons, AND/OR joins, dead-path elimination,
// blocks, scope data maps and pass-through copy programs — and degrades
// to "don't know" (both outcomes possible) for anything richer.

// Outcome constrains how the anchor activity of a reach query
// terminated.
type Outcome uint8

// The outcomes a reach query can fix.
const (
	// OutcomeAny places no constraint on the anchor's return code.
	OutcomeAny Outcome = iota
	// OutcomeCommit fixes the anchor's RC to 0.
	OutcomeCommit
	// OutcomeAbort fixes the anchor's RC to a non-zero value.
	OutcomeAbort
)

// ParseOutcome maps the wfquery spelling to an Outcome.
func ParseOutcome(s string) (Outcome, error) {
	switch s {
	case "", "any":
		return OutcomeAny, nil
	case "commit":
		return OutcomeCommit, nil
	case "abort":
		return OutcomeAbort, nil
	}
	return OutcomeAny, fmt.Errorf("fdl: unknown outcome %q (want any, commit or abort)", s)
}

// ReachQuery asks whether Target may run in an execution where From
// terminated with Outcome. From may be empty (plain "may Target ever
// run"). Activities are named by dotted path (Blk2.T6) or by bare name
// when unique across the process.
type ReachQuery struct {
	Process *model.Process
	From    string
	Outcome Outcome
	Target  string
	// CopyPrograms names programs that copy their input container to
	// their output verbatim (fmtm.CopyName for translated models); the
	// analysis propagates known values through them. Optional — without
	// it the analysis stays sound but answers "yes" more often.
	CopyPrograms []string
}

// ReachResult is the answer to a ReachQuery.
type ReachResult struct {
	// Reachable reports whether Target may run under the constraint;
	// false is a proof, true is absence of one.
	Reachable bool `json:"reachable"`
	// Infeasible is set when no execution satisfies the constraint at
	// all — the anchor itself cannot run, or cannot terminate with the
	// requested outcome; Reachable is then vacuously false.
	Infeasible bool `json:"infeasible,omitempty"`
	// From and Target echo the resolved dotted paths.
	From   string `json:"from,omitempty"`
	Target string `json:"target"`
}

// activityPaths lists every activity of the process as a dotted path,
// sorted — the vocabulary reach queries resolve names against.
func activityPaths(p *model.Process) []string {
	var out []string
	var walk func(g *model.Graph, prefix string)
	walk = func(g *model.Graph, prefix string) {
		for _, a := range g.Activities {
			out = append(out, prefix+a.Name)
			if a.Block != nil {
				walk(a.Block, prefix+a.Name+".")
			}
		}
	}
	walk(&p.Graph, "")
	sort.Strings(out)
	return out
}

// Reach answers a reachability query. See ReachQuery and ReachResult.
func Reach(q ReachQuery) (*ReachResult, error) {
	if q.Process == nil {
		return nil, fmt.Errorf("fdl: reach: nil process")
	}
	an := newAnalysis(q.Process, q.CopyPrograms)
	target, err := an.resolve(q.Target)
	if err != nil {
		return nil, err
	}
	res := &ReachResult{Target: an.path[target]}
	if q.From == "" {
		an.forward()
		res.Reachable = an.mayRun[target]
		return res, nil
	}
	anchor, err := an.resolve(q.From)
	if err != nil {
		return nil, err
	}
	res.From = an.path[anchor]
	// Feasibility: the anchor must be reachable at all before any
	// constrained question about "after it ran" makes sense.
	an.forward()
	if !an.mayRun[anchor] {
		res.Infeasible = true
		return res, nil
	}
	// Constrained pass: derive the facts every qualifying execution
	// shares (backward from the anchor), then re-run the forward
	// fixpoint under them.
	con := newAnalysis(q.Process, q.CopyPrograms)
	con.anchor = con.path2act[res.From]
	switch q.Outcome {
	case OutcomeCommit:
		con.constrainMember(con.anchor, "RC", absZero, nil)
	case OutcomeAbort:
		con.constrainMember(con.anchor, "RC", absNonZero, nil)
	}
	con.markMustRun(con.anchor)
	if con.infeasible {
		res.Infeasible = true
		return res, nil
	}
	con.forward()
	res.Reachable = con.mayRun[con.path2act[an.path[target]]]
	return res, nil
}

// absVal is the abstract value of an integer container member.
type absVal uint8

const (
	absTop     absVal = iota // unknown
	absZero                  // known 0
	absNonZero               // known non-zero
)

// tri is a three-valued truth: the condition may evaluate true, may
// evaluate false, or both.
type tri struct{ t, f bool }

// memberKey addresses one member of one activity's output container.
type memberKey struct {
	act    *model.Activity
	member string
}

type analysis struct {
	proc      *model.Process
	copyProgs map[string]bool

	// Structure indexes, built once.
	scopeOf  map[*model.Activity]*model.Graph // activity → containing graph
	parent   map[*model.Graph]*model.Activity // block graph → its block activity
	path     map[*model.Activity]string       // activity → dotted path
	path2act map[string]*model.Activity

	anchor     *model.Activity
	constraint map[memberKey]absVal
	infeasible bool

	mustRun map[*model.Activity]bool
	mayRun  map[*model.Activity]bool
	mayDead map[*model.Activity]bool
}

func newAnalysis(p *model.Process, copyProgs []string) *analysis {
	an := &analysis{
		proc:       p,
		copyProgs:  make(map[string]bool, len(copyProgs)),
		scopeOf:    make(map[*model.Activity]*model.Graph),
		parent:     make(map[*model.Graph]*model.Activity),
		path:       make(map[*model.Activity]string),
		path2act:   make(map[string]*model.Activity),
		constraint: make(map[memberKey]absVal),
		mustRun:    make(map[*model.Activity]bool),
		mayRun:     make(map[*model.Activity]bool),
		mayDead:    make(map[*model.Activity]bool),
	}
	for _, p := range copyProgs {
		an.copyProgs[p] = true
	}
	var walk func(g *model.Graph, prefix string)
	walk = func(g *model.Graph, prefix string) {
		for _, a := range g.Activities {
			an.scopeOf[a] = g
			an.path[a] = prefix + a.Name
			an.path2act[prefix+a.Name] = a
			if a.Block != nil {
				an.parent[a.Block] = a
				walk(a.Block, prefix+a.Name+".")
			}
		}
	}
	walk(&p.Graph, "")
	return an
}

// resolve finds an activity by dotted path, or by bare name when unique.
func (an *analysis) resolve(name string) (*model.Activity, error) {
	if name == "" {
		return nil, fmt.Errorf("fdl: reach: empty activity name")
	}
	if a, ok := an.path2act[name]; ok {
		return a, nil
	}
	var hits []string
	for p := range an.path2act {
		if p == name || strings.HasSuffix(p, "."+name) {
			hits = append(hits, p)
		}
	}
	switch len(hits) {
	case 1:
		return an.path2act[hits[0]], nil
	case 0:
		return nil, fmt.Errorf("fdl: reach: no activity %q in process %s (activities: %s)",
			name, an.proc.Name, strings.Join(activityPaths(an.proc), ", "))
	default:
		sort.Strings(hits)
		return nil, fmt.Errorf("fdl: reach: ambiguous activity %q in process %s (matches %s)",
			name, an.proc.Name, strings.Join(hits, ", "))
	}
}

// ---- backward pass: necessary facts of every execution where the ----
// ---- anchor terminates with the requested outcome                ----

// markMustRun records that a ran in every qualifying execution and
// chases the necessity backwards: an activity with a single incoming
// connector (or an AND join) can only have started because each
// incoming connector evaluated true on a source that itself ran, and an
// activity inside a block implies the block activity ran.
func (an *analysis) markMustRun(a *model.Activity) {
	if an.mustRun[a] {
		return
	}
	an.mustRun[a] = true
	g := an.scopeOf[a]
	if pa := an.parent[g]; pa != nil {
		an.markMustRun(pa)
	}
	inc := g.Incoming(a.Name)
	if len(inc) == 0 {
		return
	}
	if len(inc) > 1 && a.Join != model.JoinAnd {
		// OR join with several predecessors: any one may have fired;
		// no unique necessity to derive.
		return
	}
	for _, c := range inc {
		src := g.Activity(c.From)
		if src == nil {
			continue
		}
		an.markMustRun(src)
		an.constrainTrue(src, c.Condition)
	}
}

// constrainTrue derives member constraints from "condition n evaluated
// true against src's output container". Only conjunctions of RC-style
// comparisons yield facts; everything else derives nothing (sound).
func (an *analysis) constrainTrue(src *model.Activity, n expr.Node) {
	b, ok := n.(*expr.Binary)
	if !ok {
		return
	}
	if b.Op == expr.OpAnd {
		an.constrainTrue(src, b.L)
		an.constrainTrue(src, b.R)
		return
	}
	member, op, lit, ok := splitCmp(b)
	if !ok {
		return
	}
	switch {
	case op == expr.OpEq && lit == 0:
		an.constrainMember(src, member, absZero, nil)
	case op == expr.OpEq && lit != 0,
		op == expr.OpNe && lit == 0,
		op == expr.OpGt && lit >= 0,
		op == expr.OpGe && lit > 0,
		op == expr.OpLt && lit <= 0,
		op == expr.OpLe && lit < 0:
		an.constrainMember(src, member, absNonZero, nil)
	}
}

// constrainMember records a known value of a member of a's output
// container and chases it through the data plane to the producing
// activity: a block's output member comes from an inner scope-output
// map, a copy program's from its input connectors. Conflicting facts
// mean no qualifying execution exists.
func (an *analysis) constrainMember(a *model.Activity, member string, v absVal, seen map[memberKey]bool) {
	k := memberKey{a, member}
	if seen[k] {
		return
	}
	if seen == nil {
		seen = make(map[memberKey]bool)
	}
	seen[k] = true
	if old, ok := an.constraint[k]; ok {
		if old != v {
			an.infeasible = true
		}
		return
	}
	an.constraint[k] = v
	switch {
	case a.Block != nil:
		if src, f, ok := uniqueSource(a.Block, model.ScopeRef, member); ok && src != model.ScopeRef {
			if inner := a.Block.Activity(src); inner != nil {
				// A non-zero value proves the inner producer actually
				// ran (an unwritten member reads as zero).
				if v == absNonZero {
					an.markMustRun(inner)
				}
				an.constrainMember(inner, f, v, seen)
			}
		}
	case an.copyProgs[a.Program]:
		g := an.scopeOf[a]
		if src, f, ok := uniqueSource(g, a.Name, member); ok && src != model.ScopeRef {
			if sa := g.Activity(src); sa != nil {
				if v == absNonZero {
					an.markMustRun(sa)
				}
				an.constrainMember(sa, f, v, seen)
			}
		}
	}
}

// uniqueSource finds the single data-connector source feeding member
// `to`'s path `member` inside g (to is an activity name or ScopeRef).
// Ambiguous wiring (several maps targeting the member) yields no fact.
func uniqueSource(g *model.Graph, to, member string) (from, fromPath string, ok bool) {
	n := 0
	for _, d := range g.DataInto(to) {
		for _, m := range d.Maps {
			if m.ToPath == member {
				n++
				from, fromPath = d.From, m.FromPath
			}
		}
	}
	return from, fromPath, n == 1
}

// ---- forward pass: may-run / may-dead fixpoint ----

func (an *analysis) forward() {
	for a := range an.mustRun {
		an.mayRun[a] = true
	}
	for changed := true; changed; {
		changed = false
		an.walkGraph(&an.proc.Graph, true, &changed)
	}
}

func (an *analysis) walkGraph(g *model.Graph, scopeRuns bool, changed *bool) {
	for _, a := range g.Activities {
		run, dead := an.evalActivity(g, a, scopeRuns)
		if run && !an.mayRun[a] {
			an.mayRun[a] = true
			*changed = true
		}
		if dead && !an.mayDead[a] {
			an.mayDead[a] = true
			*changed = true
		}
		if a.Block != nil {
			an.walkGraph(a.Block, an.mayRun[a], changed)
		}
	}
}

// evalActivity applies the engine's start semantics in may-form: an AND
// join may start when every incoming connector may deliver true and may
// be dead-path-eliminated when any may deliver false; an OR join may
// start on any true and dies only when all incoming may deliver false.
// A dead source pushes false downstream (dead-path elimination), and a
// source that cannot terminate delivers nothing.
func (an *analysis) evalActivity(g *model.Graph, a *model.Activity, scopeRuns bool) (run, dead bool) {
	inc := g.Incoming(a.Name)
	if len(inc) == 0 {
		return scopeRuns, false
	}
	allTrue, anyTrue, allFalse, anyFalse := true, false, true, false
	for _, c := range inc {
		var v tri
		src := g.Activity(c.From)
		if src != nil && an.mayRun[src] {
			v = an.evalCond(src, c.Condition)
		}
		if src != nil && an.mayDead[src] {
			v.f = true
		}
		allTrue = allTrue && v.t
		anyTrue = anyTrue || v.t
		allFalse = allFalse && v.f
		anyFalse = anyFalse || v.f
	}
	if a.Join == model.JoinOr {
		return anyTrue, allFalse
	}
	return allTrue, anyFalse
}

// evalCond evaluates a connector condition three-valuedly against the
// abstract output container of src. nil means TRUE.
func (an *analysis) evalCond(src *model.Activity, n expr.Node) tri {
	if n == nil {
		return tri{t: true}
	}
	switch x := n.(type) {
	case *expr.Lit:
		if x.Val.Kind() == expr.KindBool {
			b := x.Val.AsBool()
			return tri{t: b, f: !b}
		}
	case *expr.Unary:
		if x.Op == expr.OpNot {
			v := an.evalCond(src, x.X)
			return tri{t: v.f, f: v.t}
		}
	case *expr.Binary:
		switch x.Op {
		case expr.OpAnd:
			l, r := an.evalCond(src, x.L), an.evalCond(src, x.R)
			return tri{t: l.t && r.t, f: l.f || r.f}
		case expr.OpOr:
			l, r := an.evalCond(src, x.L), an.evalCond(src, x.R)
			return tri{t: l.t || r.t, f: l.f && r.f}
		default:
			if member, op, lit, ok := splitCmp(x); ok {
				return cmpTri(an.outVal(src, member, nil), op, lit)
			}
		}
	}
	return tri{t: true, f: true}
}

// splitCmp decomposes a comparison between a single-member reference
// and an integer literal, normalizing the member to the left side.
func splitCmp(b *expr.Binary) (member string, op expr.Op, lit int64, ok bool) {
	switch b.Op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return "", 0, 0, false
	}
	if r, okL := b.L.(*expr.Ref); okL {
		if l, okR := b.R.(*expr.Lit); okR && l.Val.Kind() == expr.KindInt && len(r.Path) == 1 {
			return r.Path[0], b.Op, l.Val.AsInt(), true
		}
	}
	if l, okL := b.L.(*expr.Lit); okL {
		if r, okR := b.R.(*expr.Ref); okR && l.Val.Kind() == expr.KindInt && len(r.Path) == 1 {
			return r.Path[0], flipCmp(b.Op), l.Val.AsInt(), true
		}
	}
	return "", 0, 0, false
}

// flipCmp mirrors a comparison so the reference reads on the left:
// lit op m  ≡  m flip(op) lit.
func flipCmp(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op // Eq, Ne are symmetric
}

// cmpTri compares an abstract value against an integer literal.
func cmpTri(v absVal, op expr.Op, lit int64) tri {
	switch v {
	case absZero:
		b := cmpInt(0, op, lit)
		return tri{t: b, f: !b}
	case absNonZero:
		if lit == 0 {
			switch op {
			case expr.OpEq:
				return tri{f: true}
			case expr.OpNe:
				return tri{t: true}
			}
		}
	}
	return tri{t: true, f: true}
}

func cmpInt(a int64, op expr.Op, b int64) bool {
	switch op {
	case expr.OpEq:
		return a == b
	case expr.OpNe:
		return a != b
	case expr.OpLt:
		return a < b
	case expr.OpLe:
		return a <= b
	case expr.OpGt:
		return a > b
	case expr.OpGe:
		return a >= b
	}
	return false
}

// ---- abstract data plane ----

// outVal resolves the abstract value of a member of a's output
// container: recorded constraints first, then the activity's exit
// condition (a loop exits only when it holds), then structural
// propagation — block outputs through their inner scope-output maps,
// copy programs through their input wiring. Cycles and everything else
// are unknown.
func (an *analysis) outVal(a *model.Activity, member string, seen map[memberKey]bool) absVal {
	k := memberKey{a, member}
	if v, ok := an.constraint[k]; ok {
		return v
	}
	if seen[k] {
		return absTop
	}
	if seen == nil {
		seen = make(map[memberKey]bool)
	}
	seen[k] = true
	if a.Exit != nil {
		if v := exitVal(a.Exit, member); v != absTop {
			return v
		}
	}
	switch {
	case a.Block != nil:
		return an.scopeOutVal(a.Block, member, seen)
	case an.copyProgs[a.Program]:
		return an.inVal(a, member, seen)
	}
	return absTop
}

// exitVal derives a member's value from an exit condition having held
// at the final iteration (conjunctions of member/literal comparisons).
func exitVal(n expr.Node, member string) absVal {
	b, ok := n.(*expr.Binary)
	if !ok {
		return absTop
	}
	if b.Op == expr.OpAnd {
		if v := exitVal(b.L, member); v != absTop {
			return v
		}
		return exitVal(b.R, member)
	}
	m, op, lit, ok := splitCmp(b)
	if !ok || m != member {
		return absTop
	}
	switch {
	case op == expr.OpEq && lit == 0:
		return absZero
	case op == expr.OpEq && lit != 0, op == expr.OpNe && lit == 0:
		return absNonZero
	}
	return absTop
}

// inVal resolves a member of a's input container through the data
// connectors targeting it.
func (an *analysis) inVal(a *model.Activity, member string, seen map[memberKey]bool) absVal {
	g := an.scopeOf[a]
	src, f, ok := uniqueSource(g, a.Name, member)
	if !ok {
		return absTop
	}
	if src == model.ScopeRef {
		return an.scopeInVal(g, f, seen)
	}
	if sa := g.Activity(src); sa != nil {
		return an.outVal(sa, f, seen)
	}
	return absTop
}

// scopeInVal resolves a member of a scope's input container: the
// process input is unknown; a block's input is the block activity's.
func (an *analysis) scopeInVal(g *model.Graph, member string, seen map[memberKey]bool) absVal {
	pa := an.parent[g]
	if pa == nil {
		return absTop
	}
	return an.inVal(pa, member, seen)
}

// scopeOutVal resolves a member of a scope's output container through
// the scope-output data maps.
func (an *analysis) scopeOutVal(g *model.Graph, member string, seen map[memberKey]bool) absVal {
	src, f, ok := uniqueSource(g, model.ScopeRef, member)
	if !ok {
		return absTop
	}
	if src == model.ScopeRef {
		return an.scopeInVal(g, f, seen)
	}
	if sa := g.Activity(src); sa != nil {
		return an.outVal(sa, f, seen)
	}
	return absTop
}
