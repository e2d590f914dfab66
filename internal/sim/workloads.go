// Package sim provides the workloads and the experiment runners of the
// reproduction's evaluation (EXPERIMENTS.md): process topologies for the
// benchmarks, the paper's example specifications, the E-series correctness
// experiments and the S1 simulation with their printable reports, and the
// crashed corpus the restart and time-travel benchmarks read. The
// B-series measurements are the testing.B benchmarks of the repository
// root.
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

// coinProgram commits or aborts deterministically per (path, iter) from
// the seed.
func coinProgram(seed int64) engine.Program {
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

// travelSaga is the running example of the paper's §4.1: book a flight, a
// hotel and a car, with a cancellation compensating each booking.
func travelSaga() *saga.Spec {
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
	spec := travelSaga()
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
