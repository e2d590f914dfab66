package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/wal"
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

// b14Outcome is one shard count's measured behavior at the offered load.
type b14Outcome struct {
	accepted   int
	shed       int
	failed     int
	rebalanced int64
	wall       time.Duration
	lat        []time.Duration // scheduled arrival -> completion, accepted only
}

// b14Offered drives the open-loop arrival process against a sharded
// fleet: n arrivals paced at the given rate on an absolute schedule
// (arrival i fires at start + i/rate regardless of how the fleet is
// coping — coordinated omission cannot flatter the numbers, and latency
// is measured from the scheduled arrival, so pacing overshoot counts
// against the fleet, not for it). Every arrival is admitted with the
// shedding policy; accepted work records arrival-to-completion latency.
func b14Offered(shards int, rate float64, n int, dir string) (b14Outcome, error) {
	e, p := b14Workload()
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: shards, Dir: dir, Parallel: b14Parallel,
		MaxQueue: b14Queue, HotQueue: b14Parallel + b14Queue/2,
		Shed: true, GroupCommit: true,
	})
	if err != nil {
		return b14Outcome{}, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]time.Duration, n)
	done := make([]bool, n)
	accepted := 0
	failed := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		arrive := start.Add(time.Duration(i) * interval)
		if d := time.Until(arrive); d > 0 {
			time.Sleep(d)
		}
		i := i
		_, err := f.Submit(p.Name, nil, func(_ *engine.Instance, err error) {
			if err == nil {
				lat[i] = time.Since(arrive)
				done[i] = true
			}
		})
		if err == nil {
			accepted++
		} else if !errors.Is(err, engine.ErrOverloaded) {
			failed++
		}
	}
	f.Drain()
	out := b14Outcome{
		accepted:   accepted,
		failed:     failed,
		wall:       time.Since(start),
		rebalanced: f.Stats().Rebalanced,
		shed:       int(f.Stats().Shed),
	}
	if err := f.Close(); err != nil {
		return out, err
	}
	for i := range done {
		if done[i] {
			out.lat = append(out.lat, lat[i])
		}
	}
	if len(out.lat) != accepted {
		return out, fmt.Errorf("accepted %d instances but %d completed", accepted, len(out.lat))
	}
	return out, nil
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

// e11Fleet builds the E11 sharded travel-saga fleet over root. victim <
// 0 runs crash-free; otherwise the file system beneath that shard's
// segments dies at byte b. track receives each shard's ack-tracking
// wrapper.
func e11Fleet(root string, victim int, b int64, track []*ackTrackingLog) (*engine.Fleet, string, error) {
	e, proc := travelWorkload()
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: e11Shards, Dir: root, Parallel: 2, MaxQueue: e11FleetN,
		NoRebalance: true, // placement must be pure hash: the sweep relies on a stable victim
		GroupCommit: true, SegmentMaxRecords: 8,
		FS: func(shard int) wal.FS {
			if shard == victim {
				return wal.NewFaultFS(wal.FaultCrash, b)
			}
			return wal.OSFS{}
		},
		WrapLog: func(shard int, log wal.Log) wal.Log {
			track[shard] = &ackTrackingLog{inner: log}
			return track[shard]
		},
	})
	return f, proc, err
}

// E11 scale: e11FleetN saga instances over e11Shards shards.
const (
	e11Shards = 3
	e11FleetN = 6
)

// RunE11 is the shard-crash soak: a sharded fleet runs the travel saga
// (book_car aborts, so every instance takes the compensation path) with
// the file system beneath one shard's group-commit WAL killed at a byte
// (FleetConfig.FS, wal.FaultCrash) — at every frame end and torn cut of
// the victim's crash-free run — while the other shards keep serving. The
// victim's two workers share batches, so a rerun puts other bytes at the
// cut: any cut is fair. After each crash the fleet directory is recovered
// with RecoverFleet (per-shard repair + checkpoint ladder). The soak
// passes only if, at every crash point:
//
//   - the crash left exactly the bytes below the cut in the victim's
//     directory, torn iff the cut is not a frame end of what was written;
//   - every instance placed on a surviving shard still finishes during
//     the crashed run (shard isolation: one shard's storage death does
//     not take the fleet down);
//   - no append acknowledged by the victim shard is missing after its
//     directory is repaired (zero acked-append loss);
//   - every recovered instance — the victim's partial instances resumed
//     and re-driven — finishes with the crash-free baseline's output and
//     audit trail (output-identical recovery);
//   - the compensation-ordering oracle (saga.CheckGuarantee) holds on
//     every recovered instance's program history.
func RunE11() *Report {
	r := &Report{
		ID:      "E11",
		Title:   "shard-crash soak: byte-offset crash of one shard at every frame end and torn cut, survivors serve, recovery exact",
		Columns: []string{"mode", "shards", "fleet", "victim", "crash points", "survivors ok", "acks lost", "recovered ok", "oracle ok"},
		Pass:    true,
	}
	spec := TravelSaga()
	root, err := os.MkdirTemp("", "wfsoak-shard")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(root)

	// Crash-free baseline: one instance's output and trail (every
	// instance runs the identical workload).
	be, bproc := travelWorkload()
	base, err := be.CreateInstance(bproc, nil, nil)
	if err == nil {
		err = base.Start()
	}
	if err != nil || !base.Finished() {
		r.Pass = false
		r.Err = fmt.Errorf("E11 baseline: %v", err)
		return r
	}
	baseTrail := fmt.Sprint(trailStrings(base))

	// Clean fleet run: find the victim (the shard carrying the most
	// records) and its batch-boundary count, and pin down placement.
	track := make([]*ackTrackingLog, e11Shards)
	f, proc, err := e11Fleet(filepath.Join(root, "clean"), -1, 0, track)
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	res, err := f.Run(proc, e11FleetN, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && res.Finished != e11FleetN {
		err = fmt.Errorf("clean run finished %d of %d: %v", res.Finished, e11FleetN, res.Err)
	}
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("E11 clean run: %w", err)
		return r
	}
	victim, boundaries := 0, 0
	for s, tr := range track {
		if n := len(tr.acked); n > boundaries {
			victim, boundaries = s, n
		}
	}
	ends, err := wal.FrameEnds(filepath.Join(root, "clean", engine.ShardDirName(victim)))
	if err != nil || len(ends) != boundaries || !track[victim].batched() {
		r.fail(fmt.Errorf("E11 clean run: victim wrote %d frames for %d acks (%v), batch path ran: %v",
			len(ends), boundaries, err, track[victim].batched()))
		return r
	}
	// Instances homed on the victim vs. survivors (placement is pure
	// hash with NoRebalance, so it is identical in every run).
	onVictim := make(map[string]bool)
	for i := 1; i <= e11FleetN; i++ {
		id := fmt.Sprintf("inst-%d", i)
		if engine.ShardFor(id, e11Shards) == victim {
			onVictim[id] = true
		}
	}
	survivors := e11FleetN - len(onVictim)
	if len(onVictim) == 0 || survivors == 0 {
		r.Pass = false
		r.Err = fmt.Errorf("E11: degenerate placement, %d of %d instances on victim shard %d",
			len(onVictim), e11FleetN, victim)
		return r
	}

	for _, mode := range crashModes {
		okSurvivors, okAcks, okRecovered, okOracle := true, true, true, true
		acksLost := 0
		for crashAt := 1; crashAt < boundaries; crashAt++ {
			runRoot := filepath.Join(root, fmt.Sprintf("%s-%d", mode.name[:5], crashAt))
			tr := make([]*ackTrackingLog, e11Shards)
			b := wal.CrashCut(ends, crashAt, mode.torn)
			f, proc, err := e11Fleet(runRoot, victim, b, tr)
			if err != nil {
				r.fail(fmt.Errorf("E11 %s@%d: %w", mode.name, crashAt, err))
				return r
			}
			res, err := f.Run(proc, e11FleetN, nil)
			f.Close() // the victim's crashed log seals with ErrCrash; tolerated
			if err != nil {
				r.fail(fmt.Errorf("E11 %s@%d run: %w", mode.name, crashAt, err))
				return r
			}
			// The crash must have fired on the victim...
			if res.Failed == 0 || !errors.Is(res.Err, wal.ErrCrash) {
				okSurvivors = false
			}
			// ...while every survivor-shard instance finished.
			if res.Finished < survivors {
				okSurvivors = false
			}
			// Zero acked-append loss on the repaired victim directory.
			vdir := filepath.Join(runRoot, engine.ShardDirName(victim))
			clean, cerr := crashLeft(vdir, b)
			whole, err := wal.Ladder{Path: vdir, Full: true}.Recover()
			if cerr != nil || err != nil || (whole.Torn == 0) != clean {
				r.fail(fmt.Errorf("E11 %s@%d repair after a clean=%v cut: %v, %v", mode.name, crashAt, clean, cerr, err))
				return r
			}
			if n := tr[victim].lost(whole.Tail); n > 0 {
				okAcks = false
				acksLost += n
			}
			// Recover the whole fleet directory; every recovered instance
			// must reproduce the baseline exactly and satisfy the oracle.
			re, _ := travelWorkload()
			insts, err := engine.RecoverFleet(re, runRoot, nil)
			if err != nil || len(insts) < survivors {
				okRecovered = false
			}
			for _, inst := range insts {
				if !inst.Finished() || !inst.Output().Equal(base.Output()) ||
					fmt.Sprint(trailStrings(inst)) != baseTrail {
					okRecovered = false
				}
				if err := saga.CheckGuarantee(spec, sagaEventsFromRuns(spec, inst)); err != nil {
					okOracle = false
				}
			}
			os.RemoveAll(runRoot)
		}
		ok := okSurvivors && okAcks && okRecovered && okOracle
		if !ok {
			r.Pass = false
			if r.Err == nil {
				r.Err = fmt.Errorf("E11 %s: survivors=%v acks=%v recovered=%v oracle=%v",
					mode.name, okSurvivors, okAcks, okRecovered, okOracle)
			}
		}
		r.AddRow(mode.name, fmt.Sprint(e11Shards), fmt.Sprint(e11FleetN),
			fmt.Sprintf("shard-%02d (%d inst)", victim, len(onVictim)),
			fmt.Sprint(boundaries-1), yesNo(okSurvivors), fmt.Sprint(acksLost),
			yesNo(okRecovered), yesNo(okOracle))
	}
	return r
}

// fail marks the report failed with err.
func (r *Report) fail(err error) {
	r.Pass = false
	r.Err = err
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
