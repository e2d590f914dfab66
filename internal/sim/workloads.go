// Package sim provides workload generators, experiment runners and timing
// harnesses for the reproduction's evaluation (EXPERIMENTS.md): process
// topologies for navigation benchmarks, random saga and flexible
// transaction specifications, and the E1–E5 correctness experiments with
// their printable reports.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/fmtm"
	"repro/internal/model"
	"repro/internal/rm"
)

// OKProgram commits immediately.
var OKProgram = engine.ProgramFunc(func(inv *engine.Invocation) error {
	inv.Out.SetRC(0)
	return nil
})

// AbortProgram aborts immediately.
var AbortProgram = engine.ProgramFunc(func(inv *engine.Invocation) error {
	inv.Out.SetRC(1)
	return nil
})

// NewEngine returns an engine with the standard simulation programs
// registered: "ok" (commits) and "abort" (aborts).
func NewEngine() *engine.Engine {
	e := engine.New()
	mustRegister(e, "ok", OKProgram)
	mustRegister(e, "abort", AbortProgram)
	return e
}

func mustRegister(e *engine.Engine, name string, p engine.Program) {
	if err := e.RegisterProgram(name, p); err != nil {
		panic(err)
	}
}

// Chain builds a linear process A1 -> A2 -> ... -> An with "RC = 0"
// transition conditions; every activity commits.
func Chain(name string, n int) *model.Process {
	p := model.NewProcess(name)
	for i := 1; i <= n; i++ {
		p.Activities = append(p.Activities, &model.Activity{
			Name: actName(i), Kind: model.KindProgram, Program: "ok",
		})
		if i > 1 {
			p.Control = append(p.Control, &model.ControlConnector{
				From: actName(i - 1), To: actName(i), Condition: expr.MustParse("RC = 0"),
			})
		}
	}
	return p
}

// FanOutIn builds A -> (W1..Ww) -> Z with an AND join at Z.
func FanOutIn(name string, width int) *model.Process {
	p := model.NewProcess(name)
	p.Activities = append(p.Activities, &model.Activity{Name: "A", Kind: model.KindProgram, Program: "ok"})
	for i := 1; i <= width; i++ {
		w := fmt.Sprintf("W%d", i)
		p.Activities = append(p.Activities, &model.Activity{Name: w, Kind: model.KindProgram, Program: "ok"})
		p.Control = append(p.Control,
			&model.ControlConnector{From: "A", To: w, Condition: expr.MustParse("RC = 0")},
			&model.ControlConnector{From: w, To: "Z", Condition: expr.MustParse("RC = 0")},
		)
	}
	p.Activities = append(p.Activities, &model.Activity{Name: "Z", Kind: model.KindProgram, Program: "ok"})
	return p
}

// DPEChain builds a chain whose first activity aborts, so the remaining
// n-1 activities are eliminated by dead path elimination — the
// DPE-dominated workload of benchmark B7.
func DPEChain(name string, n int) *model.Process {
	p := Chain(name, n)
	p.Activities[0].Program = "abort"
	return p
}

// RandomDAG builds a random acyclic process over n "coin" activities with
// forward-edge probability pEdge, random RC conditions and random joins.
// Program "coin" must be registered by the caller (see CoinProgram).
func RandomDAG(name string, r *rand.Rand, n int, pEdge float64) *model.Process {
	p := model.NewProcess(name)
	for i := 1; i <= n; i++ {
		a := &model.Activity{Name: actName(i), Kind: model.KindProgram, Program: "coin"}
		if r.Intn(2) == 0 {
			a.Join = model.JoinOr
		}
		p.Activities = append(p.Activities, a)
	}
	conds := []string{"RC = 0", "RC <> 0", ""}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if r.Float64() >= pEdge {
				continue
			}
			c := &model.ControlConnector{From: actName(i), To: actName(j)}
			if s := conds[r.Intn(len(conds))]; s != "" {
				c.Condition = expr.MustParse(s)
			}
			p.Control = append(p.Control, c)
		}
	}
	return p
}

// CoinProgram commits or aborts deterministically per (path, iter) from
// the seed.
func CoinProgram(seed int64) engine.Program {
	return engine.ProgramFunc(func(inv *engine.Invocation) error {
		h := seed
		for _, b := range inv.Path {
			h = h*131 + int64(b)
		}
		r := rand.New(rand.NewSource(h ^ int64(inv.Iter)))
		inv.Out.SetRC(int64(r.Intn(2)))
		return nil
	})
}

func actName(i int) string { return fmt.Sprintf("A%d", i) }

// NStepSaga builds the standard T1..Tn / C1..Cn saga.
func NStepSaga(name string, n int) *saga.Spec {
	s := &saga.Spec{Name: name}
	for i := 1; i <= n; i++ {
		s.Steps = append(s.Steps, saga.Step{
			Name: fmt.Sprintf("T%d", i), Compensation: fmt.Sprintf("C%d", i),
		})
	}
	return s
}

// TravelSaga is the running example of the paper's §4.1: book a flight, a
// hotel and a car, with a cancellation compensating each booking.
func TravelSaga() *saga.Spec {
	return &saga.Spec{
		Name: "travel",
		Steps: []saga.Step{
			{Name: "book_flight", Compensation: "cancel_flight"},
			{Name: "book_hotel", Compensation: "cancel_hotel"},
			{Name: "book_car", Compensation: "cancel_car"},
		},
	}
}

// travelWorkload builds an engine with opts running the travel saga with
// book_car aborting, so every execution takes the compensation path.
func travelWorkload(opts ...engine.Option) (*engine.Engine, string) {
	spec := TravelSaga()
	e := engine.New(opts...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		panic(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("book_car") // forces the compensation path
	if err := fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), inj, &rm.Recorder{}); err != nil {
		panic(err)
	}
	p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
	if err != nil {
		panic(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		panic(err)
	}
	return e, spec.Name
}

// flexibleWorkload builds an engine with opts running the Figure 3
// flexible transaction with T6 aborting (C5 compensates, alternate path
// via T7).
func flexibleWorkload(opts ...engine.Option) (*engine.Engine, string) {
	spec := Fig3Flexible()
	e := engine.New(opts...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		panic(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("T6")
	if err := fmtm.RegisterFlexible(e, spec, fmtm.PureFlexibleBinding(spec), inj, &rm.Recorder{}); err != nil {
		panic(err)
	}
	p, err := fmtm.TranslateFlexible(spec)
	if err != nil {
		panic(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		panic(err)
	}
	return e, spec.Name
}

// Fig3Flexible is the paper's Figure 3 example.
func Fig3Flexible() *flexible.Spec {
	return &flexible.Spec{
		Name: "Fig3",
		Subs: []flexible.SubSpec{
			{Name: "T1", Compensatable: true, Compensation: "C1"},
			{Name: "T2"},
			{Name: "T3", Retriable: true},
			{Name: "T4"},
			{Name: "T5", Compensatable: true, Compensation: "C5"},
			{Name: "T6", Compensatable: true, Compensation: "C6"},
			{Name: "T7", Retriable: true},
			{Name: "T8"},
		},
		Paths: [][]string{
			{"T1", "T2", "T4", "T5", "T6", "T8"},
			{"T1", "T2", "T4", "T7"},
			{"T1", "T2", "T3"},
		},
	}
}

// RandomFlexible generates a well-formed flexible transaction by
// construction, mirroring the shape of the paper's Figure 3: the primary
// path is seg_1 p_1 seg_2 p_2 ... seg_N p_N tail where each seg_k is a
// compensatable segment, each p_k a pivot and tail is retriable; for each
// pivot p_k an alternative path diverges immediately *after* p_k into a
// retriable rescue subtransaction. A failure anywhere after p_k commits is
// then absorbed by rescue_k after compensating only compensatable work —
// exactly the ZNBB94 well-formedness discipline. A failure before p_1
// commits unwinds to a clean global abort.
func RandomFlexible(name string, r *rand.Rand, pivots int) *flexible.Spec {
	spec := &flexible.Spec{Name: name}
	var primary []string
	sub := 0
	newSub := func(s flexible.SubSpec) string {
		sub++
		s.Name = fmt.Sprintf("S%d", sub)
		if s.Compensatable {
			s.Compensation = fmt.Sprintf("CS%d", sub)
		}
		spec.Subs = append(spec.Subs, s)
		return s.Name
	}
	var alts [][]string
	for k := 0; k < pivots; k++ {
		for i := 0; i < 1+r.Intn(3); i++ {
			primary = append(primary, newSub(flexible.SubSpec{Compensatable: true}))
		}
		primary = append(primary, newSub(flexible.SubSpec{})) // pivot p_k
		// Rescue path diverging right after p_k.
		rescue := newSub(flexible.SubSpec{Retriable: true})
		alts = append(alts, append(append([]string(nil), primary...), rescue))
	}
	// Terminal retriable so the primary path is guaranteed past p_N.
	primary = append(primary, newSub(flexible.SubSpec{Retriable: true}))
	// Most preferred first, then the rescues of the deepest pivots first
	// (preference among disjoint divergences is immaterial).
	spec.Paths = append([][]string{primary}, alts...)
	return spec
}
