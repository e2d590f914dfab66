package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// RunB11 measures the cost of the live observability plane on the hot
// path: the same fleet-32 chain workload over a shared group-commit WAL
// is run (a) with nothing attached to the event bus — the idle fast
// path, one atomic load per would-be publish; (b) with the flight
// recorder attached as a synchronous tap; (c) with an SSE-like
// subscriber that JSON-encodes every event off a bounded queue, the
// shape of cmd/wfrun's /events handler. Each mode reports its best of
// three runs and its records/sec relative to idle — a reported column,
// not a gate: the runs last ~10 ms and the ratio moves by more than 5%
// between identical runs. The gate is a count: the flight recorder, being
// a synchronous tap, must drop nothing.
func RunB11() *Report {
	r := &Report{
		ID:      "B11",
		Title:   "observability overhead: bus idle vs. flight recorder vs. SSE subscriber (fleet 32, shared group-commit WAL)",
		Columns: []string{"mode", "wall", "records/sec", "events", "drops", "vs idle"},
		Pass:    true,
	}
	dir, err := os.MkdirTemp("", "wfbench-obs")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	proc := Chain("b11", b9Chain)
	recsPerInst := 2*b9Chain + 2
	const fleet, parallel = 32, 16

	type outcome struct {
		recsPerSec float64
		wallNs     float64
		published  int64
		drops      int64
	}
	run := func(mode string) (outcome, error) {
		flog, err := wal.OpenFileLog(filepath.Join(dir, "b11.wal"), wal.WithFsync())
		if err != nil {
			return outcome{}, err
		}
		g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))

		bus := obs.NewBus()
		var detach func()
		var sub *obs.Subscription
		var drained sync.WaitGroup
		switch mode {
		case "flight recorder":
			rec := obs.NewRecorder(obs.DefaultRecorderSize)
			detach = bus.Attach(rec.Record)
		case "sse subscriber":
			sub = bus.Subscribe(256)
			enc := json.NewEncoder(io.Discard)
			drained.Add(1)
			go func() {
				defer drained.Done()
				for ev := range sub.Events() {
					_ = enc.Encode(ev)
				}
			}()
		}

		e := engine.New(engine.WithBus(bus))
		mustRegister(e, "ok", OKProgram)
		if err := e.RegisterProcess(proc); err != nil {
			return outcome{}, err
		}
		res, err := runFleet(e, proc.Name, fleet, parallel, g)
		if err == nil && res.Failed > 0 {
			err = fmt.Errorf("%d of %d instances failed: %v", res.Failed, fleet, res.Err)
		}
		if cerr := g.Close(); err == nil {
			err = cerr
		}
		if sub != nil {
			bus.Unsubscribe(sub)
			drained.Wait()
		}
		if detach != nil {
			detach()
		}
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			recsPerSec: float64(fleet*recsPerInst) / res.Elapsed.Seconds(),
			wallNs:     float64(res.Elapsed.Nanoseconds()),
			published:  bus.Published(),
			drops:      bus.Dropped(),
		}, nil
	}
	best := func(mode string) (outcome, error) {
		var top outcome
		for i := 0; i < 3; i++ {
			out, err := run(mode)
			if err != nil {
				return outcome{}, err
			}
			if out.recsPerSec > top.recsPerSec {
				top = out
			}
		}
		return top, nil
	}

	idle, err := best("idle")
	if err == nil {
		var rec, sse outcome
		if rec, err = best("flight recorder"); err == nil {
			sse, err = best("sse subscriber")
		}
		if err == nil {
			row := func(mode string, out outcome) {
				events := "-"
				if out.published > 0 {
					events = fmt.Sprint(out.published)
				}
				r.AddRow(mode, fmtNs(out.wallNs), fmt.Sprintf("%.0f", out.recsPerSec),
					events, fmt.Sprint(out.drops),
					fmt.Sprintf("%.2f", out.recsPerSec/idle.recsPerSec))
				r.AddSample(Sample{Name: "B11/" + mode, NsOp: out.wallNs, Iters: 1,
					RecordsPerSec: out.recsPerSec})
			}
			row("idle (no subscriber)", idle)
			row("flight recorder", rec)
			row("sse subscriber", sse)
			if rec.drops != 0 {
				r.Pass = false
				r.Err = fmt.Errorf("B11: flight recorder dropped %d events; a synchronous tap must drop none", rec.drops)
			}
		}
	}
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B11: %w", err)
	}
	return r
}
