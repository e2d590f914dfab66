package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/fmtm"
	"repro/internal/rm"
)

// The paper (§2, §3.3) lists simulation among the capabilities that make
// workflow systems useful beyond anything transaction models offer. This
// file implements a Monte-Carlo simulator for advanced transaction
// specifications: given per-subtransaction abort probabilities, it
// estimates outcome distributions — which execution path a flexible
// transaction commits on, how often a saga must compensate, how many
// compensations run — before anything touches a real system.

// probDecider aborts each named subtransaction independently with its
// configured probability (retriable semantics emerge from the executors'
// retry loops). Unlisted names always commit.
type probDecider struct {
	r     *rand.Rand
	abort map[string]float64
}

func (d *probDecider) Decide(name string) rm.Outcome {
	if p, ok := d.abort[name]; ok && d.r.Float64() < p {
		return rm.Abort
	}
	return rm.Commit
}

// SagaSimResult is the estimated outcome distribution of a saga.
type SagaSimResult struct {
	Trials            int
	CommitRate        float64
	MeanCompensations float64
	// AbortAt[i] is the fraction of trials that aborted at step i+1.
	AbortAt []float64
}

// SimulateSaga runs the saga spec through the native executor trials times
// under independent per-step abort probabilities.
func SimulateSaga(spec *saga.Spec, abort map[string]float64, trials int, seed int64) (SagaSimResult, error) {
	prep, err := saga.Prepare(spec, fmtm.PureSagaBinding(spec))
	if err != nil {
		return SagaSimResult{}, err
	}
	dec := &probDecider{r: rand.New(rand.NewSource(seed)), abort: abort}
	res := SagaSimResult{Trials: trials, AbortAt: make([]float64, len(spec.Steps))}
	var commits int
	var compensations int
	compSet := map[string]bool{}
	for _, st := range spec.Steps {
		compSet[st.Compensation] = true
	}
	for i := 0; i < trials; i++ {
		rec := &rm.Recorder{}
		ex := &saga.Executor{Decider: dec}
		out, err := ex.Run(prep, rec)
		if err != nil {
			return SagaSimResult{}, err
		}
		if out.Committed {
			commits++
		} else {
			res.AbortAt[out.AbortedAt-1]++
		}
		for _, ev := range rec.Events() {
			if compSet[ev.Name] && ev.Kind == rm.EvCommit {
				compensations++
			}
		}
	}
	res.CommitRate = float64(commits) / float64(trials)
	res.MeanCompensations = float64(compensations) / float64(trials)
	for i := range res.AbortAt {
		res.AbortAt[i] /= float64(trials)
	}
	return res, nil
}

// FlexSimResult is the estimated outcome distribution of a flexible
// transaction.
type FlexSimResult struct {
	Trials int
	// PathRate maps a committed path (subtransaction names joined with
	// ",") to its frequency; the empty key is global abort.
	PathRate map[string]float64
	// AbortRate is the global-abort frequency.
	AbortRate float64
	// MeanSwitches is the average number of path switches per trial.
	MeanSwitches float64
}

// SimulateFlexible runs the flexible-transaction spec through the native
// executor trials times under independent abort probabilities. Retriable
// subtransactions retry inside the executor, so their abort probability
// shapes latency, not outcome.
func SimulateFlexible(spec *flexible.Spec, abort map[string]float64, trials int, seed int64) (FlexSimResult, error) {
	prep, err := flexible.Prepare(spec, fmtm.PureFlexibleBinding(spec))
	if err != nil {
		return FlexSimResult{}, err
	}
	dec := &probDecider{r: rand.New(rand.NewSource(seed)), abort: abort}
	res := FlexSimResult{Trials: trials, PathRate: map[string]float64{}}
	var switches int
	for i := 0; i < trials; i++ {
		ex := &flexible.Executor{Decider: dec}
		out, err := ex.Run(prep, nil)
		if err != nil {
			return FlexSimResult{}, err
		}
		switches += out.Switches
		if out.Committed {
			res.PathRate[strings.Join(out.Path, ",")]++
		} else {
			res.AbortRate++
		}
	}
	for k := range res.PathRate {
		res.PathRate[k] /= float64(trials)
	}
	res.AbortRate /= float64(trials)
	res.MeanSwitches = float64(switches) / float64(trials)
	return res, nil
}

// RunS1 is the simulation table printed by cmd/wfbench: the outcome
// distribution of the paper's Figure 3 flexible transaction as the abort
// probability of every non-retriable subtransaction sweeps upward — the
// quantitative version of the alternatives argument of §4.2: higher
// failure rates shift commits from the preferred path p1 to the rescue
// paths p2/p3 before any trial ends in a global abort, because global
// abort requires T1 or T2 to fail.
func RunS1() *Report {
	r := &Report{
		ID:      "S1",
		Title:   "simulation (§3.3): Fig. 3 outcome distribution vs per-subtransaction abort probability",
		Columns: []string{"p(abort)", "p1 rate", "p2 rate", "p3 rate", "global abort", "mean switches"},
		Pass:    true,
	}
	spec := Fig3Flexible()
	const trials = 4000
	p1 := "T1,T2,T4,T5,T6,T8"
	p2 := "T1,T2,T4,T7"
	p3 := "T1,T2,T3"
	for _, p := range []float64{0.0, 0.05, 0.1, 0.2, 0.4} {
		abort := map[string]float64{}
		for _, sub := range spec.Subs {
			if !sub.Retriable {
				abort[sub.Name] = p
			}
		}
		out, err := SimulateFlexible(spec, abort, trials, 42)
		if err != nil {
			r.Pass = false
			r.Err = err
			return r
		}
		// Sanity: rates sum to 1.
		sum := out.AbortRate
		for _, v := range out.PathRate {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			r.Pass = false
		}
		r.AddRow(
			fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.3f", out.PathRate[p1]),
			fmt.Sprintf("%.3f", out.PathRate[p2]),
			fmt.Sprintf("%.3f", out.PathRate[p3]),
			fmt.Sprintf("%.3f", out.AbortRate),
			fmt.Sprintf("%.2f", out.MeanSwitches),
		)
	}
	return r
}

// sortedPaths lists the observed committed paths of a FlexSimResult in
// decreasing frequency, for reports and tests.
func (r FlexSimResult) sortedPaths() []string {
	out := make([]string, 0, len(r.PathRate))
	for k := range r.PathRate {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return r.PathRate[out[i]] > r.PathRate[out[j]] })
	return out
}
