package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
)

// B14 workload shape: a chain of b14Chain activities whose program
// sleeps b14Service and commits, so one instance costs b14Chain *
// b14Service of worker time and 2*b14Chain+2 WAL records. Each shard
// brings b14Parallel workers plus its own group-commit segmented WAL —
// per-shard capacity is b14Parallel/(b14Chain*b14Service) instances/sec
// by construction, and adding shards multiplies it. That is the fleet's
// scaling claim: shards share nothing on the execute or append path.
// b14Service is deliberately large relative to the Go timer's wakeup
// granularity (~1ms on a loaded single-CPU box): the per-activity cost
// must be dominated by the modeled I/O wait, not by timer overhead that
// varies with how many sleepers happen to coalesce, or per-shard
// capacity would drift between rows.
const (
	b14Chain    = 4
	b14Service  = 5 * time.Millisecond
	b14Parallel = 2
	b14Queue    = 8 // admission queue beyond the worker slots, per shard
)

// b14Workload returns an engine plus the B14 chain process (registered).
func b14Workload() (*engine.Engine, *model.Process) {
	e := engine.New()
	mustRegister(e, "b14work", engine.ProgramFunc(func(inv *engine.Invocation) error {
		time.Sleep(b14Service)
		inv.Out.SetRC(0)
		return nil
	}))
	p := model.NewProcess("b14")
	for i := 1; i <= b14Chain; i++ {
		p.Activities = append(p.Activities, &model.Activity{
			Name: actName(i), Kind: model.KindProgram, Program: "b14work",
		})
		if i > 1 {
			p.Control = append(p.Control, &model.ControlConnector{
				From: actName(i - 1), To: actName(i), Condition: expr.MustParse("RC = 0"),
			})
		}
	}
	if err := e.RegisterProcess(p); err != nil {
		panic(err)
	}
	return e, p
}

// b14Offered drives n arrivals at the given rate (see offerLoad) through
// a shards-wide fleet rooted at dir, every arrival admitted with the
// shedding policy.
func b14Offered(shards int, rate float64, n int, dir string) (offered, error) {
	e, p := b14Workload()
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: shards, Dir: dir, Parallel: b14Parallel,
		MaxQueue: b14Queue, HotQueue: b14Parallel + b14Queue/2,
		Shed: true, GroupCommit: true,
	})
	if err != nil {
		return offered{}, err
	}
	out, err := offerLoad(f, p.Name, n, time.Duration(float64(time.Second)/rate))
	return out, errors.Join(err, f.Close())
}

// RunB14 measures sharded-fleet scaling under a fixed open-loop offered
// load. A closed-loop calibration run first measures one shard's
// capacity C1; every row then offers 4.5*C1 arrivals/sec — well past
// what one shard can absorb — to shard counts {1, 2, 4, 8} with load
// shedding on. Because each shard owns its workers and its WAL, the
// single-shard row saturates and sheds while wider fleets convert the
// same offered load into throughput.
//
// Gates (enforced by this table as run by wfbench; the test suite
// asserts structure only, the B9/B12 -race precedent):
//
//   - the 1-shard row must shed (the load really is beyond one shard);
//   - records/sec at 4 shards >= 3x the 1-shard row (near-linear
//     scaling to 4 shards at equal offered load);
//   - accepted p99 stays within the bounded-queue latency envelope at
//     every shard count — 4x (chain service + full-queue drain), the
//     B12 bound shape.
func RunB14() *Report {
	r := &Report{
		ID:      "B14",
		Title:   "sharded fleet: records/sec and accepted p99 vs shard count at equal open-loop offered load",
		Columns: []string{"shards", "workers/shard", "offered/s", "accepted", "shed", "rebalanced", "records/sec", "p50", "p99", "scaling x"},
		Pass:    true,
	}
	recsPerInst := 2*b14Chain + 2
	dir, err := os.MkdirTemp("", "wfbench-shard")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	// Closed-loop calibration: one shard's real capacity on this machine.
	calN := 60
	e, p := b14Workload()
	cal, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: 1, Dir: filepath.Join(dir, "cal"), Parallel: b14Parallel,
		MaxQueue: b14Queue, GroupCommit: true,
	})
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	calRes, err := cal.Run(p.Name, calN, nil)
	if cerr := cal.Close(); err == nil {
		err = cerr
	}
	if err == nil && calRes.Finished != calN {
		err = fmt.Errorf("calibration finished %d of %d: %v", calRes.Finished, calN, calRes.Err)
	}
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B14 calibration: %w", err)
		return r
	}
	c1 := float64(calN) / calRes.Elapsed.Seconds()
	r.AddRow("1 (closed loop)", fmt.Sprint(b14Parallel), "capacity",
		fmt.Sprint(calN), "0", "0",
		fmt.Sprintf("%.0f", c1*float64(recsPerInst)), "-", "-", "-")

	rate := 4.5 * c1
	n := int(rate * 0.5) // half a second of arrivals per row
	if n < 200 {
		n = 200
	}
	chainSvc := time.Duration(b14Chain) * b14Service
	latBound := 4 * (chainSvc + time.Duration(b14Queue/b14Parallel)*chainSvc)

	var baseRps float64
	var errs []error
	for _, shards := range []int{1, 2, 4, 8} {
		out, err := b14Offered(shards, rate, n, filepath.Join(dir, fmt.Sprintf("s%d", shards)))
		if err != nil || out.failed > 0 {
			r.Pass = false
			r.Err = fmt.Errorf("B14 shards=%d: %v (%d failed)", shards, err, out.failed)
			return r
		}
		rps := float64(out.accepted*recsPerInst) / out.wall.Seconds()
		scaling := "-"
		if shards == 1 {
			baseRps = rps
		} else if baseRps > 0 {
			scaling = fmt.Sprintf("%.2f", rps/baseRps)
		}
		p50 := b12Percentile(out.lat, 0.50)
		p99 := b12Percentile(out.lat, 0.99)
		r.AddRow(fmt.Sprint(shards), fmt.Sprint(b14Parallel), fmt.Sprintf("%.0f", rate),
			fmt.Sprint(out.accepted), fmt.Sprint(out.shed), fmt.Sprint(out.rebalanced),
			fmt.Sprintf("%.0f", rps),
			fmtNs(float64(p50.Nanoseconds())), fmtNs(float64(p99.Nanoseconds())), scaling)
		r.AddSample(Sample{Name: fmt.Sprintf("B14/shards=%d", shards),
			NsOp: float64(out.wall.Nanoseconds()), Iters: 1, RecordsPerSec: rps})
		if shards == 1 && out.shed == 0 {
			errs = append(errs, errors.New("B14: 1-shard row shed nothing at 4.5x capacity"))
		}
		if shards == 4 && baseRps > 0 && rps < 3*baseRps {
			errs = append(errs, fmt.Errorf("B14: 4-shard scaling %.2fx, want >= 3x", rps/baseRps))
		}
		if p99 > latBound {
			errs = append(errs, fmt.Errorf("B14: shards=%d accepted p99 %v exceeds bound %v", shards, p99, latBound))
		}
	}
	if len(errs) > 0 {
		r.Pass = false
		r.Err = errors.Join(errs...)
	}
	return r
}
