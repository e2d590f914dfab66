package sim

import (
	"fmt"
	"strings"
)

// Report is one experiment's printable result: a header, column names,
// rows, and an overall pass/fail verdict.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Pass    bool
	Err     error
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
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
