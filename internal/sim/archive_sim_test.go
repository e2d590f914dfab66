package sim

import "testing"

// TestE12ArchiveSoak runs the archive-tier soak; its verdicts are
// deterministic (crash sweeps, typed faults, counters), so the full
// report is asserted even under -race.
func TestE12ArchiveSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("archive soak skipped in -short mode")
	}
	rep := RunE12()
	if !rep.Pass {
		t.Fatalf("E12 failed:\n%s", rep)
	}
	if len(rep.Rows) != 10 {
		t.Errorf("E12: rows=%d, want 10 (6 crash-sweep + 4 fault-kind)", len(rep.Rows))
	}
}
