package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/history"
)

// TestSubcommandsMatchRegistry pins the dispatch table to the canonical
// registry in internal/history — the one doclint -xref checks
// OPERATIONS.md recipes against. Drift here would let documented
// one-liners and the binary disagree.
func TestSubcommandsMatchRegistry(t *testing.T) {
	var have []string
	for name := range commands {
		have = append(have, name)
	}
	sort.Strings(have)
	if want := history.Subcommands(); !reflect.DeepEqual(have, want) {
		t.Fatalf("dispatch table %v != history.Subcommands() %v", have, want)
	}
}

// built holds the commands compiled so far, each once per test process.
var built = struct {
	sync.Mutex
	dir  string
	bins map[string]string
}{bins: map[string]string{}}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wfquery-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	built.dir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildCmd compiles one of the repo's commands, the first time a test of
// this process asks for it, and returns the binary's path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	built.Lock()
	defer built.Unlock()
	if bin, ok := built.bins[name]; ok {
		return bin
	}
	bin := filepath.Join(built.dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	built.bins[name] = bin
	return bin
}

// chainFDL is a three-step chain with RC conditions and an abort
// branch, exercising both reach answers and time travel.
const chainFDL = `PROGRAM 'step'
END 'step'
PROGRAM 'cleanup'
END 'cleanup'

PROCESS 'demo' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'A'
  PROGRAM_ACTIVITY 'B' ( 'Default', 'Default' )
    PROGRAM 'step'
  END 'B'
  PROGRAM_ACTIVITY 'C' ( 'Default', 'Default' )
    PROGRAM 'cleanup'
  END 'C'
  CONTROL FROM 'A' TO 'B' WHEN "RC = 0"
  CONTROL FROM 'A' TO 'C' WHEN "RC <> 0"
END 'demo'
`

func writeFDL(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "demo.fdl")
	if err := os.WriteFile(path, []byte(chainFDL), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestStateTimeTravel: wfrun leaves a WAL behind; wfquery reconstructs
// the instance at chosen boundaries, including the newest, and refuses
// boundaries past recorded history.
func TestStateTimeTravel(t *testing.T) {
	dir := t.TempDir()
	wfrun := buildCmd(t, "wfrun")
	wfquery := buildCmd(t, "wfquery")
	fdlPath := writeFDL(t, dir)
	walPath := filepath.Join(dir, "run.wal")
	run(t, wfrun, "-wal", walPath, fdlPath)

	out := run(t, wfquery, "state", "-wal", walPath, "-inst", "inst-1", fdlPath)
	for _, want := range []string{"instance inst-1 of demo", "status=finished", "rung=full-replay"} {
		if !strings.Contains(out, want) {
			t.Errorf("state output missing %q:\n%s", want, out)
		}
	}
	// Travel to the first boundary: the instance had exactly one trail
	// event, so it cannot have finished yet.
	out = run(t, wfquery, "state", "-wal", walPath, "-inst", "inst-1", "-at", "1", fdlPath)
	if !strings.Contains(out, "as of boundary 1/") || strings.Contains(out, "status=finished") {
		t.Errorf("boundary-1 state unexpected:\n%s", out)
	}
	// JSON mode round-trips.
	var ans struct {
		Status     string `json:"status"`
		Boundary   int    `json:"boundary"`
		Boundaries int    `json:"boundaries"`
		Source     struct {
			Rung string `json:"Rung"`
		} `json:"source"`
	}
	out = run(t, wfquery, "state", "-wal", walPath, "-inst", "inst-1", "-json", fdlPath)
	if err := json.Unmarshal([]byte(out), &ans); err != nil {
		t.Fatalf("state -json: %v\n%s", err, out)
	}
	if ans.Status != "finished" || ans.Boundary != ans.Boundaries || ans.Boundary < 3 {
		t.Errorf("state -json = %+v", ans)
	}
	// Past-the-end boundaries and unknown instances are runtime errors.
	for _, args := range [][]string{
		{"state", "-wal", walPath, "-inst", "inst-1", "-at", "999", fdlPath},
		{"state", "-wal", walPath, "-inst", "inst-99", fdlPath},
	} {
		cmd := exec.Command(wfquery, args...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v: expected failure", args)
		} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: exit = %v, want 1", args, err)
		}
	}
}

// TestStateSharded: one instance of a sharded fleet is located through
// the shard directories without naming its shard.
func TestStateSharded(t *testing.T) {
	dir := t.TempDir()
	wfrun := buildCmd(t, "wfrun")
	wfquery := buildCmd(t, "wfquery")
	fdlPath := writeFDL(t, dir)
	fleetDir := filepath.Join(dir, "fleet")
	run(t, wfrun, "-n", "6", "-shards", "2", "-parallel", "2", "-wal", fleetDir, fdlPath)

	out := run(t, wfquery, "state", "-wal", fleetDir, "-inst", "inst-3", fdlPath)
	if !strings.Contains(out, "instance inst-3 of demo") || !strings.Contains(out, "status=finished") {
		t.Errorf("sharded state output:\n%s", out)
	}
	if !strings.Contains(out, "shards-probed=2") {
		t.Errorf("sharded state did not report shard probes:\n%s", out)
	}
}

// TestTrailExportAggAndTail: a fleet run with -trail-export leaves a
// history/v1 file; agg reports outcomes and failure causes that match
// the run, and tail -from streams the same file through the continuous
// evaluator with identical final counts.
func TestTrailExportAggAndTail(t *testing.T) {
	dir := t.TempDir()
	wfrun := buildCmd(t, "wfrun")
	wfquery := buildCmd(t, "wfquery")
	fdlPath := writeFDL(t, dir)
	trail := filepath.Join(dir, "trail.jsonl")
	// 'step' aborts (RC=1), so every instance takes the A→C branch:
	// the trail carries dead-path eliminations for B plus the cleanup
	// activity's dispatch/finish pairs.
	run(t, wfrun, "-n", "3", "-parallel", "1", "-abort", "step", "-trail-export", trail, fdlPath)
	if _, err := os.Stat(trail); err != nil {
		t.Fatalf("trail export missing: %v", err)
	}
	// The file is schema-stamped.
	raw, err := os.ReadFile(trail)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "{\"schema\":\"history/v1\"}") {
		t.Fatalf("trail not schema-stamped: %q", strings.SplitN(string(raw), "\n", 2)[0])
	}

	aggOut := run(t, wfquery, "agg", trail)
	if !strings.Contains(aggOut, "(history/v1)") {
		t.Errorf("agg did not report the schema:\n%s", aggOut)
	}
	var agg history.Aggregate
	if err := json.Unmarshal([]byte(run(t, wfquery, "agg", "-json", trail)), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Started != 3 || agg.Finished != 3 {
		t.Errorf("agg = %+v, want 3 started and finished", agg)
	}
	if agg.Events == 0 || len(agg.Latency) == 0 {
		t.Errorf("agg has no events or latency pairs: %+v", agg)
	}

	// tail -from: the continuous path over the same file agrees on the
	// final aggregate, and -every emits intermediate lines.
	tailOut := run(t, wfquery, "tail", "-from", trail, "-every", "5", "-json")
	lines := strings.Split(strings.TrimSpace(tailOut), "\n")
	if len(lines) < 2 {
		t.Fatalf("tail -every 5 emitted %d lines:\n%s", len(lines), tailOut)
	}
	var last history.Aggregate
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Events != agg.Events || last.Failed != agg.Failed || last.Started != agg.Started {
		t.Errorf("tail final %+v != agg %+v", last, agg)
	}
}

// TestKilledRunLeavesQueryablePrefix is the fatal-path flush contract:
// a fleet run killed mid-flight (forced second-signal exit) still
// leaves a well-formed, schema-stamped trail prefix that wfquery can
// aggregate.
func TestKilledRunLeavesQueryablePrefix(t *testing.T) {
	dir := t.TempDir()
	wfrun := buildCmd(t, "wfrun")
	wfquery := buildCmd(t, "wfquery")
	fdlPath := writeFDL(t, dir)
	trail := filepath.Join(dir, "trail.jsonl")
	cmd := exec.Command(wfrun, "-n", "200000", "-parallel", "1", "-trail-export", trail, fdlPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the run to produce events, then force-kill it: first
	// signal asks for a drain, the immediate second one takes the
	// forced-exit path, which must still flush the trail writer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(trail); err == nil && fi.Size() > 4096 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("trail export never grew")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGINT)
	time.Sleep(50 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok {
		// 130 is the forced-exit code; a fast machine may drain first and
		// exit 0 — either way the trail must be queryable below.
		if code := ee.ExitCode(); code != 130 && code != 1 {
			t.Fatalf("wfrun exit = %d, want 130 (forced) or a run result", code)
		}
	}
	var agg history.Aggregate
	if err := json.Unmarshal([]byte(run(t, wfquery, "agg", "-json", trail)), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Events == 0 || agg.Started == 0 {
		t.Errorf("killed run's trail aggregates to nothing: %+v", agg)
	}
	if agg.Started >= 200000 {
		t.Errorf("run was not killed mid-fleet (started=%d)", agg.Started)
	}
}

// TestReachCLI drives the static query class end to end on FDL with
// both connector polarities.
func TestReachCLI(t *testing.T) {
	dir := t.TempDir()
	wfquery := buildCmd(t, "wfquery")
	fdlPath := writeFDL(t, dir)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"reach", "-target", "B", fdlPath}, "reach B: reachable"},
		{[]string{"reach", "-after", "A", "-outcome", "abort", "-target", "B", fdlPath}, "reach B: unreachable"},
		{[]string{"reach", "-after", "A", "-outcome", "abort", "-target", "C", fdlPath}, "reach C: reachable"},
		{[]string{"reach", "-after", "A", "-outcome", "commit", "-target", "C", fdlPath}, "reach C: unreachable"},
	}
	for _, c := range cases {
		if out := run(t, wfquery, c.args...); !strings.Contains(out, c.want) {
			t.Errorf("%v: output %q does not contain %q", c.args, out, c.want)
		}
	}
	var res struct {
		Reachable bool   `json:"reachable"`
		Target    string `json:"target"`
	}
	out := run(t, wfquery, "reach", "-after", "A", "-outcome", "abort", "-target", "B", "-json", fdlPath)
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if res.Reachable || res.Target != "B" {
		t.Errorf("reach -json = %+v", res)
	}
}

// TestUsageErrorsExitTwo pins the exit-code contract shared with wfrun:
// misuse is 2, runtime failure is 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	wfquery := buildCmd(t, "wfquery")
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no subcommand", nil, "usage: wfquery"},
		{"unknown subcommand", []string{"frobnicate"}, "unknown command"},
		{"state without wal", []string{"state", "-inst", "x", "f.fdl"}, "state requires -wal"},
		{"state without inst", []string{"state", "-wal", "w", "f.fdl"}, "state requires -inst"},
		{"state without file", []string{"state", "-wal", "w", "-inst", "x"}, "exactly one FDL file"},
		{"agg without file", []string{"agg"}, "exactly one trail file"},
		{"tail without source", []string{"tail"}, "exactly one of -addr or -from"},
		{"tail with both sources", []string{"tail", "-addr", "x", "-from", "y"}, "exactly one of -addr or -from"},
		{"reach without target", []string{"reach", "f.fdl"}, "reach requires -target"},
		{"reach outcome without after", []string{"reach", "-target", "B", "-outcome", "abort", "f.fdl"}, "-outcome requires -after"},
		{"reach bad outcome", []string{"reach", "-target", "B", "-after", "A", "-outcome", "sideways", "f.fdl"}, "unknown outcome"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(wfquery, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected exit error, got %v", err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q missing %q", stderr.String(), c.stderr)
			}
		})
	}
}
