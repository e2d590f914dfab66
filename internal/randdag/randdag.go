// Package randdag draws the random acyclic processes of the navigation
// property checks: E5 and the engine's property, concurrency and
// generator tests all walk graphs from this one generator.
package randdag

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/model"
)

// Process draws a process over n program activities A1..An, each calling
// program "coin" (the caller registers it) behind an AND or an OR join with
// equal odds. Every forward pair Ai -> Aj (i < j) is connected with
// probability pEdge, under "RC = 0", "RC <> 0" or no condition with equal
// odds. The graph is acyclic by construction, so every process it returns
// passes Validate.
func Process(r *rand.Rand, proc string, n int, pEdge float64) *model.Process {
	p := model.NewProcess(proc)
	for i := 1; i <= n; i++ {
		a := &model.Activity{Name: name(i), Kind: model.KindProgram, Program: "coin"}
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
			c := &model.ControlConnector{From: name(i), To: name(j)}
			if s := conds[r.Intn(len(conds))]; s != "" {
				c.Condition = expr.MustParse(s)
			}
			p.Control = append(p.Control, c)
		}
	}
	return p
}

func name(i int) string { return fmt.Sprintf("A%d", i) }
