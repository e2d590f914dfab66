package sim

import (
	"fmt"
	"math"
	"time"
)

// Timing is the result of one measured operation: the mean over every
// timed iteration, the per-op time of the fastest batch (the noise floor —
// the statistic to compare across PRs, since it is least disturbed by GC
// and scheduling), and how many iterations were timed.
type Timing struct {
	MeanNs float64
	MinNs  float64
	Iters  int
}

// measureStats times f. Calibration runs over a short warm-up *window*
// rather than a single cold call — the first execution of a workload pays
// lazy initialization and cold caches, and letting it alone pick the
// iteration count made ns/op swing between runs. The timed phase then
// runs in a few equal batches so a per-batch minimum is available.
func measureStats(f func()) Timing {
	const (
		warmDuration = 5 * time.Millisecond
		minDuration  = 30 * time.Millisecond
		batches      = 3
	)
	// Warm-up window: at least two calls, then until the window elapses,
	// calibrating on the fastest call observed.
	per := time.Duration(1<<63 - 1)
	warmStart := time.Now()
	for calls := 0; calls < 2 || time.Since(warmStart) < warmDuration; calls++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < per {
			per = d
		}
	}
	if per <= 0 {
		per = time.Nanosecond
	}
	iters := int(minDuration/batches/per) + 1
	var total time.Duration
	minBatch := math.MaxFloat64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		total += elapsed
		if perOp := float64(elapsed.Nanoseconds()) / float64(iters); perOp < minBatch {
			minBatch = perOp
		}
	}
	return Timing{
		MeanNs: float64(total.Nanoseconds()) / float64(batches*iters),
		MinNs:  minBatch,
		Iters:  batches * iters,
	}
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
