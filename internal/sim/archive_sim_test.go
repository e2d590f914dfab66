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

// TestB15Structure smoke-runs the archival-overhead table. The <5%
// overhead gate is a wall-clock ratio wfbench enforces in CI without
// -race (B9/B14 precedent); here the structure is asserted: three rows,
// blobs actually archived in the archive row, none in the down row.
func TestB15Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement smoke tests skipped in -short mode")
	}
	rep := RunB15()
	if len(rep.Rows) != 3 {
		t.Fatalf("B15: rows=%d, want 3 (%v)", len(rep.Rows), rep.Err)
	}
	if rep.Rows[1][4] == "0" {
		t.Errorf("B15: archive row archived nothing: %v", rep.Rows)
	}
	if rep.Rows[2][4] != "0" {
		t.Errorf("B15: down-archive row archived blobs: %v", rep.Rows)
	}
}
