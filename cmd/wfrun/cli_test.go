package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// buildWfrun compiles the command once per test binary into a temp dir.
func buildWfrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wfrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUsageErrorsExitTwo pins the CLI contract: flag misuse is a usage
// error (exit 2, message on stderr), not a runtime failure (exit 1).
// Before PR 2, -fsync/-crash-at without -wal exited 1, so scripts could
// not tell a mistyped invocation from a genuinely failed run.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildWfrun(t)
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"fsync without wal", []string{"-fsync", "x.fdl"}, "-fsync and -crash-at require -wal"},
		{"crash-at without wal", []string{"-crash-at", "3", "x.fdl"}, "-fsync and -crash-at require -wal"},
		{"no file argument", []string{}, "usage: wfrun"},
		{"group-commit without wal", []string{"-group-commit", "x.fdl"}, "-group-commit requires -wal"},
		{"flush-ms without group-commit", []string{"-wal", "x.wal", "-flush-ms", "2", "x.fdl"}, "-flush-ms and -batch require -group-commit"},
		{"batch without group-commit", []string{"-wal", "x.wal", "-batch", "8", "x.fdl"}, "-flush-ms and -batch require -group-commit"},
		{"crash-at with group-commit", []string{"-wal", "x.wal", "-group-commit", "-crash-at", "3", "x.fdl"}, "-crash-at is incompatible with -group-commit"},
		{"crash-at with fleet", []string{"-wal", "x.wal", "-crash-at", "3", "-n", "4", "x.fdl"}, "-crash-at is incompatible with fleet mode"},
		{"zero fleet size", []string{"-n", "0", "x.fdl"}, "-n and -parallel must be >= 1"},
		{"zero parallel", []string{"-n", "4", "-parallel", "0", "x.fdl"}, "-n and -parallel must be >= 1"},
		{"bad batch", []string{"-wal", "x.wal", "-group-commit", "-batch", "0", "x.fdl"}, "-flush-ms must be >= 0 and -batch >= 1"},
		{"resume without wal", []string{"-resume", "x.fdl"}, "-resume requires -wal"},
		{"checkpoint without wal", []string{"-checkpoint", "ck", "x.fdl"}, "-checkpoint requires -wal"},
		{"resume with crash-at", []string{"-wal", "x.wal", "-resume", "-crash-at", "3", "x.fdl"}, "-resume is incompatible with -crash-at"},
		{"checkpoint with crash-at", []string{"-wal", "x.wal", "-checkpoint", "ck", "-crash-at", "3", "x.fdl"}, "-checkpoint is incompatible with -crash-at"},
		{"pprof without metrics-addr", []string{"-pprof", "x.fdl"}, "-pprof, -sse-buffer and -linger-ms require -metrics-addr"},
		{"sse-buffer without metrics-addr", []string{"-sse-buffer", "8", "x.fdl"}, "-pprof, -sse-buffer and -linger-ms require -metrics-addr"},
		{"linger-ms without metrics-addr", []string{"-linger-ms", "100", "x.fdl"}, "-pprof, -sse-buffer and -linger-ms require -metrics-addr"},
		{"zero sse-buffer", []string{"-metrics-addr", "127.0.0.1:0", "-sse-buffer", "0", "x.fdl"}, "-sse-buffer must be >= 1 and -linger-ms >= 0"},
		{"max-queue without fleet", []string{"-max-queue", "4", "x.fdl"}, "-max-queue and -shed require fleet mode (-n > 1)"},
		{"shed without fleet", []string{"-shed", "x.fdl"}, "-max-queue and -shed require fleet mode (-n > 1)"},
		{"negative max-queue", []string{"-n", "4", "-max-queue", "-1", "x.fdl"}, "-max-queue must be >= 0"},
		{"zero shards", []string{"-n", "4", "-shards", "0", "x.fdl"}, "-shards must be >= 1"},
		{"shards without fleet", []string{"-shards", "4", "x.fdl"}, "-shards requires fleet mode (-n > 1) or -resume"},
		{"shards with checkpoint", []string{"-n", "4", "-shards", "2", "-wal", "w", "-checkpoint", "ck", "x.fdl"}, "-checkpoint is incompatible with -shards"},
		{"archive without checkpoint or shards", []string{"-wal", "w", "-archive", "a", "x.fdl"}, "-archive requires -checkpoint or -shards"},
		{"archive without wal", []string{"-n", "4", "-shards", "2", "-archive", "a", "x.fdl"}, "-archive requires -wal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The flag check precedes any file access, so x.fdl need not exist.
			cmd := exec.Command(bin, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected exit error, got %v", err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.stderr)
			}
		})
	}
}

// TestRunWithMetricsAndSpans exercises the observability flags end to
// end on a real FDL file: the run must print the Prometheus dump and the
// span tree alongside the audit trail.
func TestRunWithMetricsAndSpans(t *testing.T) {
	bin := buildWfrun(t)
	fdl := filepath.Join(t.TempDir(), "p.fdl")
	src := `PROGRAM 'step'
END 'step'

PROCESS 'demo' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'A'
  PROGRAM_ACTIVITY 'B' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'B'
  CONTROL FROM 'A' TO 'B'
END 'demo'
`
	if err := os.WriteFile(fdl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-metrics", "-spans", fdl)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"finished=true",
		"-- metrics --",
		"engine_program_invocations 2",
		"engine_navigation_steps 2",
		"demo [instance]",
		"A [activity]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
}

// TestFleetWithGroupCommit runs a fleet over a shared group-commit WAL
// end to end: the aggregate summary must report every instance finished,
// the metrics dump must show the fleet and group-commit instruments, and
// the shared log must be strictly readable afterwards with every
// instance's records present.
func TestFleetWithGroupCommit(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := filepath.Join(dir, "p.fdl")
	src := `PROGRAM 'step'
END 'step'

PROCESS 'demo' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'A'
  PROGRAM_ACTIVITY 'B' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'B'
  CONTROL FROM 'A' TO 'B'
END 'demo'
`
	if err := os.WriteFile(fdl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "fleet.wal")
	cmd := exec.Command(bin, "-wal", walPath, "-group-commit", "-n", "16", "-parallel", "4", "-metrics", fdl)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"fleet: 16 instances of demo: finished=16 failed=0",
		"wal_group_batches",
		"wal_group_records 96", // 16 instances x (created + 2x(started+activity) + done)
		"engine_fleet_active_max",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
	records, err := wal.ReadFile(walPath)
	if err != nil {
		t.Fatalf("reading shared log: %v", err)
	}
	perInst := make(map[string]int)
	for _, r := range records {
		perInst[r.Instance]++
	}
	if len(perInst) != 16 {
		t.Fatalf("log holds %d instances, want 16", len(perInst))
	}
	for id, n := range perInst {
		if n != 6 {
			t.Errorf("instance %s has %d records, want 6", id, n)
		}
	}
}

// TestFleetShedAndBreakerFlags runs a fleet with the overload-control
// flags at a queue depth that can never fill (-max-queue >= -n) and with
// -breaker on: the summary must report the shed count (zero here — the
// deterministic shedding behavior itself is pinned by the engine's
// scheduler tests and the B12 table) and the metrics dump must show the
// breaker instruments the flag wires in.
func TestFleetShedAndBreakerFlags(t *testing.T) {
	bin := buildWfrun(t)
	fdl := demoFDL(t, t.TempDir())
	out, err := exec.Command(bin, "-n", "16", "-parallel", "4",
		"-max-queue", "32", "-shed", "-breaker", "-metrics", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"fleet: 16 instances of demo: finished=16 failed=0 shed=0",
		"engine_breaker_open 0",
		"engine_retry_budget",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
}

// TestSignalCutsLingerShort pins the graceful-shutdown contract: a run
// parked in its -linger-ms window exits promptly and cleanly on SIGINT
// instead of serving out the full window, and the flight recorder dump
// survives. The dump file doubles as the readiness signal — it is
// written immediately before the linger wait begins.
func TestSignalCutsLingerShort(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	dump := filepath.Join(dir, "flight.jsonl")
	cmd := exec.Command(bin, "-metrics-addr", "127.0.0.1:0",
		"-linger-ms", "60000", "-flight-recorder", dump, fdl)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(dump); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("flight dump never appeared; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGINT: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("run kept lingering after SIGINT")
	}
	if !strings.Contains(stderr.String(), "signal received, draining") {
		t.Errorf("drain announcement missing from stderr:\n%s", stderr.String())
	}
	if data, err := os.ReadFile(dump); err != nil || len(data) == 0 {
		t.Errorf("flight dump unreadable or empty: %v", err)
	}
}

// demoFDL writes the two-step demo process used by the resume tests.
func demoFDL(t *testing.T, dir string) string {
	t.Helper()
	fdl := filepath.Join(dir, "p.fdl")
	src := `PROGRAM 'step'
END 'step'

PROCESS 'demo' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'A'
  PROGRAM_ACTIVITY 'B' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'B'
  CONTROL FROM 'A' TO 'B'
END 'demo'
`
	if err := os.WriteFile(fdl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return fdl
}

// TestShardedFleetRunAndResume runs a fleet across shards with a
// durable group-commit WAL per shard, then resumes from the fleet root:
// the run summary must report per-shard placement summing to the fleet
// size, the root must hold one shard-NN directory per shard, and the
// sharded resume must recover every instance finished.
func TestShardedFleetRunAndResume(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	root := filepath.Join(dir, "fleet")

	out, err := exec.Command(bin, "-wal", root, "-group-commit", "-n", "24",
		"-shards", "3", "-parallel", "2", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded run: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "fleet: 24 instances of demo across 3 shards: finished=24 failed=0") {
		t.Fatalf("sharded summary missing:\n%s", s)
	}
	placed := 0
	for i := 0; i < 3; i++ {
		tag := "shard-0" + string(rune('0'+i)) + ": placed="
		idx := strings.Index(s, tag)
		if idx < 0 {
			t.Fatalf("per-shard line for shard %d missing:\n%s", i, s)
		}
		var n, fin, fail int
		if _, err := fmt.Sscanf(s[idx:], "shard-0"+string(rune('0'+i))+": placed=%d finished=%d failed=%d", &n, &fin, &fail); err != nil {
			t.Fatalf("parsing shard line: %v\n%s", err, s)
		}
		placed += n
	}
	if placed != 24 {
		t.Errorf("per-shard placements sum to %d, want 24", placed)
	}

	out, err = exec.Command(bin, "-resume", "-shards", "3", "-wal", root, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded resume: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "recovered 24 instances from 3 shard directories: finished=24 failed=0") {
		t.Errorf("sharded resume summary missing:\n%s", out)
	}
}

// TestShardedFleetTakesGroupCommitTuning: -flush-ms and -batch reach every
// shard's group commit. Each flush of a shard waits out its window, so the
// run cannot finish sooner than one of them.
func TestShardedFleetTakesGroupCommitTuning(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-wal", filepath.Join(dir, "fleet"), "-group-commit",
		"-flush-ms", "60", "-batch", "8", "-n", "4", "-shards", "2", demoFDL(t, dir)).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded run: %v\n%s", err, out)
	}
	s := string(out)
	_, rest, ok := strings.Cut(s, "finished=4 failed=0 shed=0")
	if !ok {
		t.Fatalf("sharded summary missing:\n%s", s)
	}
	_, rest, _ = strings.Cut(rest, "elapsed=")
	elapsed, err := time.ParseDuration(strings.Fields(rest)[0])
	if err != nil || elapsed < 60*time.Millisecond {
		t.Fatalf("elapsed %v (%v): the 60ms group-commit window did not reach the shards\n%s", elapsed, err, s)
	}
}

// TestResumeAfterCrash crashes a run with -crash-at (which leaves the
// repaired record prefix on disk — the in-process recovery writes a
// fresh in-memory log) and then resumes it with -resume: the second
// invocation must recover the instance from the flat WAL file and run it
// to completion.
func TestResumeAfterCrash(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	walPath := filepath.Join(dir, "run.wal")

	out, err := exec.Command(bin, "-wal", walPath, "-crash-at", "3", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("crashed run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "crashed after 3 records") {
		t.Fatalf("first run did not crash:\n%s", out)
	}

	out, err = exec.Command(bin, "-resume", "-wal", walPath, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"repaired " + walPath + ": 3 records kept",
		"resumed 1 instances (0 already finished in checkpoint): finished=1 failed=0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("resume output missing %q\n%s", want, s)
		}
	}
}

// TestResumeWithCheckpoint runs a fleet in checkpointed mode (-wal as a
// segment directory plus -checkpoint and -group-commit) and then resumes
// from the same directories: the resume must load a checkpoint, account
// for every instance (recovered or checkpoint-finished), and exit 0.
func TestResumeWithCheckpoint(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	segDir := filepath.Join(dir, "segs")
	ckDir := filepath.Join(dir, "ckpts")

	out, err := exec.Command(bin, "-wal", segDir, "-checkpoint", ckDir,
		"-group-commit", "-n", "24", "-parallel", "4", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("checkpointed fleet run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fleet: 24 instances of demo: finished=24 failed=0") {
		t.Fatalf("fleet summary missing:\n%s", out)
	}
	// 24 instances x 6 records with the checkpointer's 64-record rotation
	// trigger guarantees at least one sealed segment and one checkpoint.
	cps, err := wal.ListCheckpoints(ckDir)
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoint written: %v (%v)", cps, err)
	}

	out, err = exec.Command(bin, "-resume", "-wal", segDir, "-checkpoint", ckDir, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "checkpoint seq ") {
		t.Errorf("resume did not report the checkpoint it used:\n%s", s)
	}
	if !strings.Contains(s, "failed=0") {
		t.Errorf("resume reported failures:\n%s", s)
	}
	if !strings.Contains(s, "resumed ") {
		t.Errorf("resume summary missing:\n%s", s)
	}
	if !strings.Contains(s, "(recovery rung: "+wal.SourceNewestCheckpoint+")") {
		t.Errorf("resume summary does not name the recovery rung:\n%s", s)
	}
}

// TestResumeFromArchiveAfterLocalCheckpointLoss runs a checkpointed
// fleet with -archive, destroys every local checkpoint, and resumes
// with -archive: the ladder must climb past the empty local tiers to
// the archive rung, fetch the newest archived checkpoint, account for
// every instance, and name the rung in the summary line.
func TestResumeFromArchiveAfterLocalCheckpointLoss(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	segDir := filepath.Join(dir, "segs")
	ckDir := filepath.Join(dir, "ckpts")
	archDir := filepath.Join(dir, "arch")

	out, err := exec.Command(bin, "-wal", segDir, "-checkpoint", ckDir,
		"-archive", archDir, "-group-commit", "-n", "24", "-parallel", "4", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("archived fleet run: %v\n%s", err, out)
	}
	// The run's shutdown drains the archiver, so the newest checkpoint
	// must have an archived copy we can destroy the local tier against.
	ents, err := os.ReadDir(archDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("archive holds nothing: %v (%v)", ents, err)
	}
	cps, err := wal.ListCheckpoints(ckDir)
	if err != nil || len(cps) == 0 {
		t.Fatalf("no local checkpoint written: %v (%v)", cps, err)
	}
	for _, ci := range cps {
		if err := os.Remove(ci.Path); err != nil {
			t.Fatal(err)
		}
	}

	out, err = exec.Command(bin, "-resume", "-wal", segDir, "-checkpoint", ckDir,
		"-archive", archDir, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("resume from archive: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"checkpoint seq ",
		"failed=0",
		"(recovery rung: " + wal.SourceArchiveCheckpoint + ")",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("resume output missing %q\n%s", want, s)
		}
	}
}

// TestShardedArchiveRunAndResume runs a sharded fleet with -archive
// (which switches every shard to a checkpointed WAL with its own
// archiver), burns the local checkpoints in every shard directory, and
// resumes with -archive: each shard must recover through the archive
// rung and the summary must tally the rungs.
func TestShardedArchiveRunAndResume(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	root := filepath.Join(dir, "fleet")
	archDir := filepath.Join(dir, "arch")

	// 64 instances x 6 records: even a badly skewed hash split leaves both
	// shards past the 64-record checkpoint trigger, so each shard is
	// guaranteed a local checkpoint (and an archived copy) to destroy.
	out, err := exec.Command(bin, "-wal", root, "-archive", archDir, "-group-commit",
		"-n", "64", "-shards", "2", "-parallel", "2", fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded archive run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fleet: 64 instances of demo across 2 shards: finished=64 failed=0") {
		t.Fatalf("sharded summary missing:\n%s", out)
	}
	for i := 0; i < 2; i++ {
		shard := fmt.Sprintf("shard-%02d", i)
		cps, err := wal.ListCheckpoints(filepath.Join(root, shard))
		if err != nil || len(cps) == 0 {
			t.Fatalf("%s has no local checkpoint: %v (%v)", shard, cps, err)
		}
		for _, ci := range cps {
			if err := os.Remove(ci.Path); err != nil {
				t.Fatal(err)
			}
		}
		if ents, err := os.ReadDir(filepath.Join(archDir, shard)); err != nil || len(ents) == 0 {
			t.Fatalf("%s archive holds nothing: %v (%v)", shard, ents, err)
		}
	}

	out, err = exec.Command(bin, "-resume", "-shards", "2", "-wal", root,
		"-archive", archDir, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded resume from archive: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"from 2 shard directories",
		"failed=0",
		"recovery rungs: " + wal.SourceArchiveCheckpoint + "=2",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("sharded resume output missing %q\n%s", want, s)
		}
	}
}
