package flexible_test

import (
	"testing"

	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/rm"
)

// TestQuickAtomicity: for generated well-formed flexible transactions and
// abort plans, the native executor's history is semantically atomic
// (flexible.CheckHistory): it commits along a declared path or undoes
// everything it committed, and it only aborts when a failure at the top of
// the path trie leaves no alternative.
func TestQuickAtomicity(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		c := gen.New(gen.Flexible, seed, gen.Default)
		spec := c.Flexible
		b := flexible.Binding{}
		for _, name := range c.Names() {
			b[name] = rm.Subtransaction{Name: name}
		}
		rec := &rm.Recorder{}
		res, err := (&flexible.Executor{Decider: c.Plan.Injector()}).Execute(spec, b, rec)
		if err == nil {
			err = flexible.CheckHistory(spec, rec.Events())
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Text())
		}
		if !res.Committed {
			for _, ev := range rec.Events() {
				if sub := spec.Sub(ev.Name); sub != nil && ev.Kind == rm.EvCommit && !sub.Compensatable {
					t.Fatalf("seed %d: aborted after %s, which cannot be undone, committed\n%s", seed, ev.Name, c.Text())
				}
			}
		}
	}
}
