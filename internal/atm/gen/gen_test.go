package gen_test

import (
	"testing"

	"repro/internal/atm/gen"
	"repro/internal/fmtm"
)

// reparse reads c's FMTM text back into a case of the same family and
// plan.
func reparse(t *testing.T, c *gen.Case) *gen.Case {
	t.Helper()
	file, err := fmtm.ParseSpec(c.Text())
	if err != nil {
		t.Fatalf("%s seed %d: text does not parse: %v\n%s", c.Family, c.Seed, err, c.Text())
	}
	back := &gen.Case{Family: c.Family, Seed: c.Seed, Plan: c.Plan}
	switch {
	case len(file.Sagas) == 1:
		back.Family, back.Saga = gen.Linear, file.Sagas[0]
	case len(file.General) == 1:
		back.Family, back.General = gen.Parallel, file.General[0]
	case len(file.Flexible) == 1:
		back.Family, back.Flexible = gen.Flexible, file.Flexible[0]
	}
	return back
}

// TestGeneratedSpecsValid: every drawn case passes its model's checks and
// the generator's own, reads back from its FMTM text as itself, and the
// draws cover every shape the models have — aborts and flaky retries,
// parallel steps, every flexible subtransaction type and alternatives.
func TestGeneratedSpecsValid(t *testing.T) {
	seen := map[string]int{}
	for _, f := range gen.Families {
		for seed := int64(1); seed <= 1000; seed++ {
			c := gen.New(f, seed, gen.Default)
			if err := c.Valid(); err != nil {
				t.Fatalf("%s seed %d: %v\n%s", f, seed, err, c.Text())
			}
			if back := reparse(t, c); back.Family != f || back.Text() != c.Text() {
				t.Fatalf("%s seed %d: text reads back as a %s:\n%s\nwant\n%s", f, seed, back.Family, back.Text(), c.Text())
			}
			for _, k := range c.Plan {
				if k == gen.Always {
					seen["abort"]++
				} else {
					seen["flaky"]++
				}
			}
			switch f {
			case gen.Parallel:
				if len(c.General.Deps[c.General.Steps[len(c.General.Steps)-1].Name]) == 0 {
					seen["parallel sink"]++
				}
			case gen.Flexible:
				seen["alternatives"] += len(c.Flexible.Paths) - 1
				for _, s := range c.Flexible.Subs {
					seen[s.Kind()]++
				}
			}
		}
	}
	for _, k := range []string{"abort", "flaky", "parallel sink", "alternatives", "pivot", "compensatable", "retriable", "compensatable+retriable"} {
		if seen[k] == 0 {
			t.Errorf("no draw has a %s", k)
		}
	}
}

// TestShrinkStaysValid: every case Shrink proposes is valid and smaller
// than the case it came from.
func TestShrinkStaysValid(t *testing.T) {
	for _, f := range gen.Families {
		for seed := int64(1); seed <= 100; seed++ {
			c := gen.New(f, seed, gen.Default)
			for _, s := range c.Shrink() {
				if err := s.Valid(); err != nil {
					t.Fatalf("%s seed %d: shrunk case invalid: %v\n%s", f, seed, err, s.Text())
				}
				if s.Size()+len(s.Plan) >= c.Size()+len(c.Plan) {
					t.Fatalf("%s seed %d: shrunk case is no smaller:\n%s\nfrom\n%s", f, seed, s.Text(), c.Text())
				}
				reparse(t, s)
			}
		}
	}
}

// TestPlanInjectorAgrees: the plan decides attempt i of a name as its
// injector decides the (i+1)th call.
func TestPlanInjectorAgrees(t *testing.T) {
	p := gen.Plan{"a": gen.Always, "b": 2}
	inj := p.Injector()
	for i := 0; i < 4; i++ {
		for _, n := range []string{"a", "b", "c"} {
			if got := inj.Decide(n).String() == "abort"; got != p.Aborts(n, i) {
				t.Fatalf("%s attempt %d: injector aborts %v, plan %v", n, i, got, p.Aborts(n, i))
			}
		}
	}
}
