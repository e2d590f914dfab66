// Package gen draws advanced transaction specifications from a seed — the
// linear sagas and generalized (parallel) sagas of §4.1 and the flexible
// transactions of §4.2 — each with an abort plan that scripts every attempt
// of every subtransaction.
//
// Generation is configuration (Config) and well-formedness holds by
// construction, so every case New returns passes its model's constraint
// table (saga.Constraints, flexible.Constraints) and round-trips through
// the FMTM specification language (Case.Text). Shrink proposes smaller
// cases that keep those properties, so a failing case can be cut down to
// one a reader can follow. Violate is the converse: a drawn case broken in
// exactly one named constraint.
package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/rm"
)

// Family is the transaction model of a case.
type Family int

// The families.
const (
	Linear   Family = iota // a saga.Spec
	Parallel               // a saga.GeneralSpec
	Flexible               // a flexible.Spec
)

// Families lists every family.
var Families = []Family{Linear, Parallel, Flexible}

// String names the family as the reports do.
func (f Family) String() string {
	return [...]string{"saga", "parallel saga", "flexible transaction"}[f]
}

// Config bounds what New draws.
type Config struct {
	// MaxSteps bounds the subtransactions of a spec (compensations not
	// counted).
	MaxSteps int
	// MaxDepth bounds the subtransactions on one flexible execution path.
	MaxDepth int
	// MaxBranch bounds the alternatives at one flexible decision point.
	MaxBranch int
	// PEdge is the probability of each forward dependency of a parallel
	// saga.
	PEdge float64
	// PAbort is the probability that a subtransaction which may fail for
	// good (a saga step, a flexible pivot or compensatable) does.
	PAbort float64
}

// Default is the configuration the equivalence experiments draw from.
var Default = Config{MaxSteps: 8, MaxDepth: 5, MaxBranch: 3, PEdge: 0.4, PAbort: 0.25}

// A subtransaction that must eventually commit (a retriable one or a
// compensation) is flaky with probability pFlaky: it aborts first, between
// 1 and maxFlaky times.
const (
	pFlaky   = 0.3
	maxFlaky = 2
)

// Always, as a Plan entry, aborts every attempt.
const Always = -1

// Plan scripts the outcome of every attempt: Plan[name] = k aborts the
// first k attempts of name and commits the rest; Always aborts them all.
// Unlisted names commit.
type Plan map[string]int

// Aborts reports whether attempt (0 for the first) of name aborts.
func (p Plan) Aborts(name string, attempt int) bool {
	k, ok := p[name]
	return ok && (k == Always || attempt < k)
}

// Injector is the plan as a decider for executors that count attempts
// themselves.
func (p Plan) Injector() *rm.Injector {
	inj := rm.NewInjector()
	for name, k := range p {
		if k == Always {
			inj.AbortAlways(name)
		} else {
			inj.AbortN(name, k)
		}
	}
	return inj
}

// Case is one specification with its abort plan: the one of Saga, General
// and Flexible that Family says, plus Flexible in Violate's file that
// repeats a transaction name.
type Case struct {
	Family   Family
	Seed     int64
	Saga     *saga.Spec
	General  *saga.GeneralSpec
	Flexible *flexible.Spec
	Plan     Plan
}

// New draws the case of family f for seed.
func New(f Family, seed int64, cfg Config) *Case {
	g := &drawer{r: rand.New(rand.NewSource(seed)), cfg: cfg, plan: Plan{}}
	c := &Case{Family: f, Seed: seed, Plan: g.plan}
	switch f {
	case Linear:
		c.Saga = &saga.Spec{Name: fmt.Sprintf("saga%d", seed), Steps: g.steps(1 + g.r.Intn(cfg.MaxSteps))}
	case Parallel:
		c.General = g.parallel(fmt.Sprintf("psaga%d", seed))
	case Flexible:
		c.Flexible = &flexible.Spec{Name: fmt.Sprintf("flex%d", seed)}
		g.flex = c.Flexible
		g.grow(nil, false, false)
	}
	return c
}

type drawer struct {
	r    *rand.Rand
	cfg  Config
	plan Plan
	flex *flexible.Spec
}

// fail plans name to abort for good with probability PAbort.
func (g *drawer) fail(name string) {
	if g.r.Float64() < g.cfg.PAbort {
		g.plan[name] = Always
	}
}

// flaky plans name to abort a few times before it commits, with
// probability pFlaky.
func (g *drawer) flaky(name string) {
	if g.r.Float64() < pFlaky {
		g.plan[name] = 1 + g.r.Intn(maxFlaky)
	}
}

// steps draws the n steps T1..Tn of a saga with compensations C1..Cn.
func (g *drawer) steps(n int) []saga.Step {
	steps := make([]saga.Step, n)
	for i := range steps {
		steps[i] = saga.Step{Name: fmt.Sprintf("T%d", i+1), Compensation: fmt.Sprintf("C%d", i+1)}
		g.fail(steps[i].Name)
		g.flaky(steps[i].Compensation)
	}
	return steps
}

// parallel draws a parallel saga: forward dependencies Ti -> Tj (i < j),
// at least one, since a SAGA without an AFTER clause is a linear saga in
// the FMTM language.
func (g *drawer) parallel(name string) *saga.GeneralSpec {
	n := 2 + g.r.Intn(max(g.cfg.MaxSteps-1, 1))
	s := &saga.GeneralSpec{Name: name, Steps: g.steps(n), Deps: map[string][]string{}}
	edges := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if g.r.Float64() < g.cfg.PEdge {
				s.Deps[s.Steps[j].Name] = append(s.Deps[s.Steps[j].Name], s.Steps[i].Name)
				edges++
			}
		}
	}
	if edges == 0 {
		i := g.r.Intn(n - 1)
		j := i + 1 + g.r.Intn(n-1-i)
		s.Deps[s.Steps[j].Name] = []string{s.Steps[i].Name}
	}
	return s
}

// grow draws the path trie below the node reached by prefix, whose
// subtransaction is compensatable (comp) or not, and whose failure would
// have to undo a subtransaction that cannot be compensated (stuck). The
// children of a node are its alternatives in preference order.
//
// A failing node without a lower-preference sibling hands its failure to
// its parent: Fallback then compensates the parent and, if the parent has
// no sibling either, goes on up. So a last child must be retriable exactly
// when that walk would meet a node that is not compensatable — ZNBB94
// well-formedness (the flexible.well-formed constraint), held by
// construction.
func (g *drawer) grow(prefix []string, comp, stuck bool) {
	root := len(prefix) == 0
	room := g.cfg.MaxSteps - len(g.flex.Subs)
	m := 1
	switch {
	case !root && (len(prefix) >= g.cfg.MaxDepth || room <= 0 || g.r.Intn(4) == 0):
		m = 0
	case g.r.Intn(3) == 0:
		m = 1 + g.r.Intn(g.cfg.MaxBranch)
	}
	if m == 0 {
		g.flex.Paths = append(g.flex.Paths, append([]string(nil), prefix...))
		return
	}
	m = min(m, max(room, 1))
	for i := 0; i < m; i++ {
		childStuck := i == m-1 && !root && (!comp || stuck)
		sub := g.sub(childStuck)
		g.grow(append(prefix[:len(prefix):len(prefix)], sub.Name), sub.Compensatable, childStuck)
	}
}

// sub declares the next flexible subtransaction: retriable when its
// failure would be stuck, of any type otherwise.
func (g *drawer) sub(mustRetry bool) flexible.SubSpec {
	k := len(g.flex.Subs) + 1
	s := flexible.SubSpec{Name: fmt.Sprintf("T%d", k)}
	// Compensatable half the time when free, so failures have work to undo.
	kind := g.r.Intn(6) // 0-2 compensatable, 3 pivot, 4 retriable, 5 both
	if mustRetry && kind < 4 {
		kind = 4 + g.r.Intn(2)
	}
	s.Compensatable = kind < 3 || kind == 5
	s.Retriable = kind >= 4
	if s.Compensatable {
		s.Compensation = fmt.Sprintf("C%d", k)
		g.flaky(s.Compensation)
	}
	if s.Retriable {
		g.flaky(s.Name)
	} else {
		g.fail(s.Name)
	}
	g.flex.Subs = append(g.flex.Subs, s)
	return s
}

// Names lists every subtransaction and compensation of the case.
func (c *Case) Names() []string {
	var out []string
	switch c.Family {
	case Linear, Parallel:
		for _, st := range c.steps() {
			out = append(out, st.Name, st.Compensation)
		}
	case Flexible:
		for _, s := range c.Flexible.Subs {
			out = append(out, s.Name)
			if s.Compensation != "" {
				out = append(out, s.Compensation)
			}
		}
	}
	return out
}

// IsCompensation reports whether name is a compensation of the case.
func (c *Case) IsCompensation(name string) bool {
	if c.Family == Flexible {
		return slices.ContainsFunc(c.Flexible.Subs, func(s flexible.SubSpec) bool { return s.Compensation == name })
	}
	return slices.ContainsFunc(c.steps(), func(s saga.Step) bool { return s.Compensation == name })
}

// Size counts the subtransactions of the case, compensations not counted.
func (c *Case) Size() int {
	if c.Family == Flexible {
		return len(c.Flexible.Subs)
	}
	return len(c.steps())
}

func (c *Case) steps() []saga.Step {
	if c.Family == Linear {
		return c.Saga.Steps
	}
	return c.General.Steps
}

// Text renders the case in the FMTM specification language, the plan as a
// trailing comment.
func (c *Case) Text() string {
	var sb strings.Builder
	if c.Family != Flexible {
		name, deps := "", map[string][]string(nil)
		if c.Family == Linear {
			name = c.Saga.Name
		} else {
			name, deps = c.General.Name, c.General.Deps
		}
		fmt.Fprintf(&sb, "SAGA '%s'\n", name)
		for _, st := range c.steps() {
			fmt.Fprintf(&sb, "  STEP '%s' COMPENSATION '%s'", st.Name, st.Compensation)
			if d := deps[st.Name]; len(d) > 0 {
				fmt.Fprintf(&sb, " AFTER '%s'", strings.Join(d, "' '"))
			}
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "END '%s'\n", name)
	}
	if f := c.Flexible; f != nil {
		fmt.Fprintf(&sb, "FLEXIBLE '%s'\n", f.Name)
		for _, s := range f.Subs {
			fmt.Fprintf(&sb, "  SUB '%s'", s.Name)
			if s.Compensatable {
				sb.WriteString(" COMPENSATABLE")
			}
			if s.Retriable {
				sb.WriteString(" RETRIABLE")
			}
			if s.Pivot() {
				sb.WriteString(" PIVOT")
			}
			if s.Compensation != "" {
				fmt.Fprintf(&sb, " COMPENSATION '%s'", s.Compensation)
			}
			sb.WriteByte('\n')
		}
		for _, p := range f.Paths {
			sb.WriteString("  PATH")
			for _, n := range p {
				fmt.Fprintf(&sb, " '%s'", n)
			}
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "END '%s'\n", f.Name)
	}
	fmt.Fprintf(&sb, "// plan: %s\n", c.Plan)
	return sb.String()
}

// String renders the plan as "T3 aborts always, C1 aborts 2x" in name
// order, or "everything commits".
func (p Plan) String() string {
	if len(p) == 0 {
		return "everything commits"
	}
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if p[n] == Always {
			names[i] = n + " aborts always"
		} else {
			names[i] = fmt.Sprintf("%s aborts %dx", n, p[n])
		}
	}
	return strings.Join(names, ", ")
}

// Valid checks the case against its model's constraints and the
// generator's own: a parallel saga has a dependency (or it would print as
// a linear one), and a flexible subtransaction sits at one position of the
// path trie (a plan counts attempts per name, so a name must not run in
// two places).
func (c *Case) Valid() error {
	switch c.Family {
	case Linear:
		return c.Saga.Validate()
	case Parallel:
		if err := c.General.Validate(); err != nil {
			return err
		}
		for _, d := range c.General.Deps {
			if len(d) > 0 {
				return nil
			}
		}
		return fmt.Errorf("gen: parallel saga %s has no dependency", c.General.Name)
	}
	trie, err := flexible.BuildTrie(c.Flexible)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, n := range trie.Nodes()[1:] {
		if seen[n.Sub] {
			return fmt.Errorf("gen: flexible %s: %s sits at two trie positions", c.Flexible.Name, n.Sub)
		}
		seen[n.Sub] = true
	}
	return nil
}

// Violate draws the case of seed from the family that constraint — a row
// of saga.Constraints, flexible.Constraints or the FMTM file table — is
// about and breaks it, leaving every constraint checked before it intact,
// so the check reports exactly that one. It returns nil for a constraint
// it has no violation of.
func Violate(constraint string, seed int64) *Case {
	v, ok := violations[constraint]
	if !ok {
		return nil
	}
	c := New(v.family, seed, Default)
	v.breaks(c)
	return c
}

// violations maps each constraint to the family of the case Violate draws
// and the mutation that breaks it. A drawn saga names its steps T1..Tn (a
// parallel one has at least two, and T1 has no prerequisite), and a drawn
// flexible transaction names its subtransactions T1..Tn.
var violations = map[string]struct {
	family Family
	breaks func(c *Case)
}{
	"saga.named":                  {Linear, func(c *Case) { c.Saga.Name = "" }},
	"saga.has-steps":              {Linear, func(c *Case) { c.Saga.Steps = nil }},
	"saga.step-named":             {Linear, func(c *Case) { c.Saga.Steps[0].Name = "" }},
	"saga.compensated":            {Linear, func(c *Case) { c.Saga.Steps[0].Compensation = "" }},
	"saga.unique-names":           {Linear, func(c *Case) { c.Saga.Steps = append(c.Saga.Steps, c.Saga.Steps[0]) }},
	"saga.deps-declared":          {Parallel, func(c *Case) { c.General.Deps["T1"] = []string{"ghost"} }},
	"saga.no-self-dependency":     {Parallel, func(c *Case) { c.General.Deps["T1"] = []string{"T1"} }},
	"saga.no-repeated-dependency": {Parallel, func(c *Case) { c.General.Deps["T2"] = []string{"T1", "T1"} }},
	"saga.acyclic": {Parallel, func(c *Case) {
		c.General.Deps["T1"], c.General.Deps["T2"] = []string{"T2"}, []string{"T1"}
	}},
	"flexible.named":        {Flexible, func(c *Case) { c.Flexible.Name = "" }},
	"flexible.has-subs":     {Flexible, func(c *Case) { c.Flexible.Subs = nil }},
	"flexible.has-paths":    {Flexible, func(c *Case) { c.Flexible.Paths = nil }},
	"flexible.sub-named":    {Flexible, func(c *Case) { c.Flexible.Subs[0].Name = "" }},
	"flexible.unique-names": {Flexible, func(c *Case) { c.Flexible.Subs = append(c.Flexible.Subs, c.Flexible.Subs[0]) }},
	"flexible.compensation-iff-compensatable": {Flexible, func(c *Case) {
		c.Flexible.Subs[0].Compensatable = !c.Flexible.Subs[0].Compensatable
	}},
	"flexible.paths-nonempty": {Flexible, func(c *Case) { c.Flexible.Paths = append(c.Flexible.Paths, nil) }},
	"flexible.paths-declared": {Flexible, func(c *Case) { c.Flexible.Paths = append(c.Flexible.Paths, []string{"ghost"}) }},
	"flexible.path-no-repeat": {Flexible, func(c *Case) {
		p := c.Flexible.Paths[0]
		c.Flexible.Paths = append(c.Flexible.Paths, append(p[:len(p):len(p)], p[0]))
	}},
	"flexible.subs-used":      {Flexible, func(c *Case) { c.fresh(flexible.SubSpec{Retriable: true}) }},
	"flexible.no-prefix-path": {Flexible, func(c *Case) { c.Flexible.Paths = append(c.Flexible.Paths, c.Flexible.Paths[0]) }},
	// Two pivots ahead of everything: the second one's abort must undo
	// the first.
	"flexible.well-formed": {Flexible, func(c *Case) {
		head := []string{c.fresh(flexible.SubSpec{}), c.fresh(flexible.SubSpec{})}
		for i, p := range c.Flexible.Paths {
			c.Flexible.Paths[i] = append(head[:2:2], p...)
		}
	}},
	"fmtm.unique-transaction-names": {Linear, func(c *Case) {
		c.Flexible = New(Flexible, c.Seed, Default).Flexible
		c.Flexible.Name = c.Saga.Name
	}},
	"fmtm.reserved-names": {Linear, func(c *Case) { c.Saga.Steps[0].Name = "NOP" }},
}

// fresh declares s as the next flexible subtransaction T<n+1> and returns
// its name.
func (c *Case) fresh(s flexible.SubSpec) string {
	s.Name = fmt.Sprintf("T%d", len(c.Flexible.Subs)+1)
	c.Flexible.Subs = append(c.Flexible.Subs, s)
	return s.Name
}

// Shrink proposes every valid case one step smaller than c: a saga step
// dropped, a flexible path dropped or cut short by its last
// subtransaction, or one plan entry dropped.
func (c *Case) Shrink() []*Case {
	var out []*Case
	keep := func(s *Case) {
		if s.Valid() == nil {
			out = append(out, s)
		}
	}
	switch c.Family {
	case Linear, Parallel:
		for _, st := range c.steps() {
			keep(c.withoutStep(st.Name))
		}
	case Flexible:
		for i, p := range c.Flexible.Paths {
			keep(c.withPath(i, nil))
			if len(p) > 1 {
				keep(c.withPath(i, p[:len(p)-1]))
			}
		}
	}
	for name := range c.Plan {
		s := *c
		s.Plan = c.planWithout(func(n string) bool { return n == name })
		keep(&s)
	}
	return out
}

// planWithout is c's plan minus the names drop reports.
func (c *Case) planWithout(drop func(string) bool) Plan {
	p := Plan{}
	for n, k := range c.Plan {
		if !drop(n) {
			p[n] = k
		}
	}
	return p
}

// withoutStep is c with the saga step name removed, with its compensation,
// its dependencies and its plan entries.
func (c *Case) withoutStep(name string) *Case {
	s := *c
	var steps []saga.Step
	var comp string
	for _, st := range c.steps() {
		if st.Name == name {
			comp = st.Compensation
			continue
		}
		steps = append(steps, st)
	}
	s.Plan = c.planWithout(func(n string) bool { return n == name || n == comp })
	if c.Family == Linear {
		s.Saga = &saga.Spec{Name: c.Saga.Name, Steps: steps}
		return &s
	}
	deps := map[string][]string{}
	for step, ds := range c.General.Deps {
		if step == name {
			continue
		}
		for _, d := range ds {
			if d != name {
				deps[step] = append(deps[step], d)
			}
		}
	}
	s.General = &saga.GeneralSpec{Name: c.General.Name, Steps: steps, Deps: deps}
	return &s
}

// withPath is c with path i replaced by p (nil: removed), and the
// subtransactions no path uses any more dropped with their plan entries.
func (c *Case) withPath(i int, p []string) *Case {
	s := *c
	f := &flexible.Spec{Name: c.Flexible.Name}
	used := map[string]bool{}
	for j, q := range c.Flexible.Paths {
		if j == i {
			q = p
		}
		if q != nil {
			f.Paths = append(f.Paths, q)
		}
		for _, n := range q {
			used[n] = true
		}
	}
	gone := map[string]bool{}
	for _, sub := range c.Flexible.Subs {
		if used[sub.Name] {
			f.Subs = append(f.Subs, sub)
		} else {
			gone[sub.Name], gone[sub.Compensation] = true, true
		}
	}
	s.Flexible = f
	s.Plan = c.planWithout(func(n string) bool { return gone[n] })
	return &s
}
