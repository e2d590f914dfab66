package sim

import (
	"fmt"
	"strings"
)

// Report is one experiment's printable result: a header, column names,
// rows, and an overall pass/fail verdict for the correctness experiments.
// Measurement reports additionally carry machine-readable Samples — the
// numbers behind the formatted cells — which cmd/wfbench -json serializes
// for the perf trajectory.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Pass    bool
	Err     error
	Samples []Sample
}

// Sample is one measured data point of a report, in raw (unformatted)
// units so BENCH_*.json files can be compared across PRs.
type Sample struct {
	// Name identifies the measured case within the report, e.g.
	// "B1/chain/1000".
	Name string `json:"name"`
	// NsOp is the mean ns per operation; MinNsOp the fastest batch's
	// per-op time (the cross-PR comparison statistic, see measureStats);
	// Iters how many timed iterations contributed.
	NsOp    float64 `json:"ns_op"`
	MinNsOp float64 `json:"min_ns_op,omitempty"`
	Iters   int     `json:"iters,omitempty"`
	// RecordsPerSec is the report-specific throughput figure (activities,
	// log records, or commits per second); 0 when not applicable.
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddSample records a machine-readable data point.
func (r *Report) AddSample(s Sample) {
	r.Samples = append(r.Samples, s)
}

// sampleFrom converts a Timing into a Sample.
func sampleFrom(name string, tm Timing, recordsPerSec float64) Sample {
	return Sample{Name: name, NsOp: tm.MeanNs, MinNsOp: tm.MinNs, Iters: tm.Iters, RecordsPerSec: recordsPerSec}
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "== %s: %s [%s]\n", r.ID, r.Title, verdict)
	if r.Err != nil {
		fmt.Fprintf(&sb, "   error: %v\n", r.Err)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		sb.WriteString("   ")
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
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
