package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
)

// b12Percentile returns the p-th percentile (0 < p <= 1) of the given
// latencies, computed exactly from the sorted raw samples.
func b12Percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// offered is what one offered-load run through a fleet measured (B12,
// B14).
type offered struct {
	accepted   int
	shed       int
	failed     int // Submit errors other than a shed
	rebalanced int64
	wall       time.Duration
	lat        []time.Duration // arrival -> completion, accepted instances only
}

// offerLoad submits n instances of process to f and waits for the fleet
// to drain. interval > 0 is an open loop on an absolute schedule: arrival
// i fires at start + i*interval regardless of how the fleet is coping
// (that independence is what makes the load "offered" rather than
// self-throttled), and latency is measured from the scheduled arrival, so
// pacing overshoot counts against the fleet, not for it — coordinated
// omission cannot flatter the numbers. interval <= 0 is a closed loop:
// each arrival is the moment Submit is called. Whether a full fleet
// blocks or sheds is its FleetConfig.Shed.
func offerLoad(f *engine.Fleet, process string, n int, interval time.Duration) (offered, error) {
	lat := make([]time.Duration, n) // slot per arrival; written on completion
	var out offered
	start := time.Now()
	for i := 0; i < n; i++ {
		arrive := time.Now()
		if interval > 0 {
			arrive = start.Add(time.Duration(i) * interval)
			if d := time.Until(arrive); d > 0 {
				time.Sleep(d)
			}
		}
		i := i
		_, err := f.Submit(process, nil, func(_ *engine.Instance, err error) {
			if err == nil {
				lat[i] = time.Since(arrive)
			}
		})
		if err == nil {
			out.accepted++
		} else if !errors.Is(err, engine.ErrOverloaded) {
			out.failed++
		}
	}
	f.Drain()
	out.wall = time.Since(start)
	st := f.Stats()
	out.shed, out.rebalanced = int(st.Shed), st.Rebalanced
	for _, d := range lat {
		if d > 0 {
			out.lat = append(out.lat, d)
		}
	}
	if len(out.lat) != out.accepted {
		return out, fmt.Errorf("accepted %d instances but %d completed", out.accepted, len(out.lat))
	}
	return out, nil
}

// b12Offered runs n one-activity instances, whose program takes the given
// service time, through a one-shard fleet of workers worker slots and a
// maxQueue admission queue, paced at interval (see offerLoad). Open-loop
// arrivals that meet a full queue are shed; the closed-loop baseline
// (interval <= 0) blocks in Submit instead.
func b12Offered(workers, maxQueue, n int, service, interval time.Duration) (offered, error) {
	e := engine.New()
	mustRegister(e, "ok", engine.ProgramFunc(func(inv *engine.Invocation) error {
		time.Sleep(service)
		return OKProgram(inv)
	}))
	proc := Chain("b12", 1)
	if err := e.RegisterProcess(proc); err != nil {
		return offered{}, err
	}
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: 1, Parallel: workers, MaxQueue: maxQueue, Shed: interval > 0,
	})
	if err != nil {
		return offered{}, err
	}
	defer f.Close()
	return offerLoad(f, proc.Name, n, interval)
}

// RunB12 measures overload behavior of the fleet's bounded admission.
// A one-shard fleet of W workers serves fixed-cost one-activity
// instances; capacity is W/service instances per second. The no-overload
// baseline runs closed-loop at exactly that capacity. The overload rows
// then offer 2x capacity open-loop:
//
//   - with a bounded queue (2W) and shedding, the fleet must keep
//     accepted-work latency bounded — queue wait can never exceed the
//     queue drain time — and keep goodput within 10% of the baseline
//     (shedding rejects work instead of destroying throughput);
//   - with an effectively unbounded queue, the same offered load makes
//     latency grow with the backlog — the contrast row motivating
//     admission control. Its latency column is reported but not gated
//     (its exact magnitude is timing-sensitive).
//
// The gates (shed > 0, p99 bounded, goodput >= 90% of baseline) are
// enforced by this table as run by wfbench; the test suite asserts the
// table's structure only, since wall-clock figures distort under -race
// (the B9 precedent).
func RunB12() *Report {
	r := &Report{
		ID:      "B12",
		Title:   "overload: bounded admission + shedding vs unbounded queueing at 2x offered load",
		Columns: []string{"mode", "workers", "queue", "offered", "accepted", "shed", "tasks/sec", "p50", "p99", "goodput vs base"},
		Pass:    true,
	}
	const (
		workers  = 4
		service  = 2 * time.Millisecond
		baseN    = 400 // closed-loop baseline tasks
		overN    = 800 // open-loop arrivals at 2x capacity
		maxQueue = 2 * workers
	)
	interval := service / (2 * workers) // 2x capacity inter-arrival gap

	row := func(mode, queue, load string, out offered, vsBase float64) {
		tps := float64(out.accepted) / out.wall.Seconds()
		vs := "-"
		if vsBase > 0 {
			vs = fmt.Sprintf("%.2f", vsBase)
		}
		r.AddRow(mode, fmt.Sprint(workers), queue, load,
			fmt.Sprint(out.accepted), fmt.Sprint(out.shed),
			fmt.Sprintf("%.0f", tps),
			fmtNs(float64(b12Percentile(out.lat, 0.50).Nanoseconds())),
			fmtNs(float64(b12Percentile(out.lat, 0.99).Nanoseconds())),
			vs)
		r.AddSample(Sample{Name: "B12/" + mode, NsOp: float64(out.wall.Nanoseconds()),
			Iters: 1, RecordsPerSec: tps})
	}

	// No-overload baseline: closed loop at capacity.
	base, err := b12Offered(workers, 0, baseN, service, 0)
	// 2x overload, bounded queue, shedding.
	shed, serr := b12Offered(workers, maxQueue, overN, service, interval)
	// 2x overload, effectively unbounded queue: every arrival is accepted
	// and the backlog turns into latency.
	unbounded, uerr := b12Offered(workers, overN, overN, service, interval)
	if err := errors.Join(err, serr, uerr); err != nil {
		r.fail(fmt.Errorf("B12: %w", err))
		return r
	}
	baseTps := float64(base.accepted) / base.wall.Seconds()
	goodput := float64(shed.accepted) / shed.wall.Seconds() / baseTps
	row("baseline closed-loop", "0", "capacity", base, 0)
	row("shed bounded-queue", fmt.Sprint(maxQueue), "2x capacity", shed, goodput)
	row("unbounded queue", fmt.Sprint(overN), "2x capacity", unbounded, 0)

	var errs []error
	if shed.shed == 0 {
		errs = append(errs, errors.New("B12: no work shed at 2x offered load with a bounded queue"))
	}
	// Accepted-work latency bound: service + full-queue drain, with 4x
	// headroom for scheduler noise.
	if limit := 4 * (service + time.Duration(maxQueue/workers)*service); b12Percentile(shed.lat, 0.99) > limit {
		errs = append(errs, fmt.Errorf("B12: shed-mode p99 %v exceeds bound %v", b12Percentile(shed.lat, 0.99), limit))
	}
	if goodput < 0.9 {
		errs = append(errs, fmt.Errorf("B12: goodput %.2fx of baseline, want >= 0.9", goodput))
	}
	if unbounded.accepted != overN || unbounded.shed != 0 {
		errs = append(errs, fmt.Errorf("B12: unbounded row shed %d of %d arrivals", unbounded.shed, overN))
	}
	if len(errs) > 0 {
		r.Pass = false
		r.Err = errors.Join(errs...)
	}
	return r
}
