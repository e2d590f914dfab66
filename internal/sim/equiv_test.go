package sim

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/atm/gen"
	"repro/internal/fmtm"
	"repro/internal/model"
)

// TestEquivCatchesBrokenTranslator proves the oracles bite and failures
// shrink: a translation with one rule broken fails on the first generated
// spec the rule matters for — the model's judge rejects the workflow's
// history — the report names the row, the seed and the check, and the
// shrunk case has at most four subtransactions.
func TestEquivCatchesBrokenTranslator(t *testing.T) {
	for _, tc := range []struct {
		rule   string
		family gen.Family
		break_ func(*model.Process)
	}{
		{
			// Figure 2: the reversed connector C2 -> C1 compensates in
			// reverse order; without it C1 never runs after C2.
			rule: "saga reverse chaining", family: gen.Linear,
			break_: func(p *model.Process) {
				comp := p.Graph.Activity("Compensation").Block
				kept := comp.Control[:0]
				for _, c := range comp.Control {
					if c.From != "C2" || c.To != "C1" {
						kept = append(kept, c)
					}
				}
				comp.Control = kept
			},
		},
		{
			// §4.2 rule 4: a retriable activity repeats until it commits.
			rule: "flexible rule 4", family: gen.Flexible,
			break_: func(p *model.Process) { dropExits(&p.Graph) },
		},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			row := generated(tc.family, 1, 60, gen.Default)
			if rep := equiv("E0", "intact", row); !rep.Pass {
				t.Fatalf("intact translator fails: %v", rep.Err)
			}
			row.mutate = tc.break_
			rep := equiv("E0", "broken", row)
			if rep.Pass || rep.Err == nil {
				t.Fatal("broken translator passes")
			}
			msg := rep.Err.Error()
			if !regexp.MustCompile(`^E0 ` + regexp.QuoteMeta(row.name) + ` seed=\d+: workflow run satisfies the model: `).MatchString(msg) {
				t.Fatalf("failure does not name row, seed and check: %s", msg)
			}
			_, text, ok := strings.Cut(msg, "shrunk to:\n")
			if !ok {
				t.Fatalf("no shrunk case: %s", msg)
			}
			file, err := fmtm.ParseSpec(text)
			if err != nil {
				t.Fatalf("shrunk case does not parse (%v):\n%s", err, text)
			}
			var size int
			for _, s := range file.Sagas {
				size += len(s.Steps)
			}
			for _, f := range file.Flexible {
				size += len(f.Subs)
			}
			if size > 4 {
				t.Fatalf("shrunk to %d subtransactions, want <= 4:\n%s", size, text)
			}
			t.Logf("%s", msg)
		})
	}
}

// dropExits clears the exit condition of every forward subtransaction
// ("T<k>") in g and its blocks.
func dropExits(g *model.Graph) {
	for _, a := range g.Activities {
		if a.Kind == model.KindBlock {
			dropExits(a.Block)
		} else if strings.HasPrefix(a.Program, "T") {
			a.Exit = nil
		}
	}
}

// TestParallelCompensationPolicy pins the policy DESIGN.md §5.3 states:
// FMTM compensates a parallel saga by the static policy (the reversed
// declared partial order, parallel compensations in declaration order),
// the native executor by the dynamic one (reverse completion order). On
// the diamond with d aborting the two differ, and both satisfy the
// generalized guarantee.
func TestParallelCompensationPolicy(t *testing.T) {
	c := paperCase(diamond(), gen.Plan{"d": gen.Always})
	_, native, err := runNative(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := translate(c)
	if err != nil {
		t.Fatal(err)
	}
	_, _, workflow, _, err := (&equivRow{}).runWorkflow(c, p)
	if err != nil {
		t.Fatal(err)
	}
	const forward = "a:commit b:commit c:commit d:abort "
	if got := historyOf(workflow.Events()); got != forward+"cb:commit cc:commit ca:commit" {
		t.Errorf("workflow: %s", got)
	}
	if got := historyOf(native.Events()); got != forward+"cc:commit cb:commit ca:commit" {
		t.Errorf("native: %s", got)
	}
	if rep := equiv("E6", "diamond", &equivRow{name: "diamond", cases: []*gen.Case{c}}); !rep.Pass {
		t.Fatal(rep)
	}
}
