package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startOpsRun launches bin with args (which must include
// -metrics-addr 127.0.0.1:0), waits for the "ops listening on" stderr
// announcement and returns the bound address. Stderr keeps draining in
// the background so the child never blocks on a full pipe.
func startOpsRun(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "wfrun: ops listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(10 * time.Second):
		t.Fatal("wfrun never announced its ops address")
		return nil, ""
	}
}

// readSSE tails base/events, decoding each "data:" frame, until stopWhen
// is satisfied or the deadline cancels the request. On timeout it
// returns whatever arrived so the caller's assertions produce a useful
// failure.
func readSSE(t *testing.T, base string, stopWhen func([]obs.Event) bool, max time.Duration) []obs.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), max)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events content type = %q", ct)
	}
	var evs []obs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		evs = append(evs, ev)
		if stopWhen(evs) {
			break
		}
	}
	return evs
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// buildWftop compiles the fleet monitor once per test into a temp dir.
func buildWftop(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wftop")
	cmd := exec.Command("go", "build", "-o", bin, "../wftop")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build wftop: %v\n%s", err, out)
	}
	return bin
}

// TestOpsSurfaceEndToEnd is the PR's live-observability acceptance test:
// a real `wfrun -n 8 -parallel 4` fleet run serves /events, /healthz,
// /statusz and pprof while executing (the -linger-ms window keeps the
// surface up after the fleet completes so the assertions are not racing
// it), the SSE tail shows every instance's lifecycle in order plus WAL
// group-commit flushes, and wftop renders the fleet from /statusz.
func TestOpsSurfaceEndToEnd(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	dump := filepath.Join(dir, "flight.jsonl")
	_, addr := startOpsRun(t, bin,
		"-wal", filepath.Join(dir, "fleet.wal"), "-group-commit",
		"-n", "8", "-parallel", "4",
		"-metrics-addr", "127.0.0.1:0", "-pprof",
		"-linger-ms", "15000", "-flight-recorder", dump, fdl)
	base := "http://" + addr

	// The /events tail: the flight-recorder replay prefix means a client
	// attaching at any point — even after the fleet finished — sees the
	// full ordered history before the live stream takes over.
	gotAll := func(evs []obs.Event) bool {
		n := 0
		for _, ev := range evs {
			if ev.Kind == obs.EvInstanceFinished {
				n++
			}
		}
		return n >= 8
	}
	evs := readSSE(t, base, gotAll, 15*time.Second)
	firstIdx := func(kind, inst string) int {
		for i, ev := range evs {
			if ev.Kind == kind && ev.Instance == inst {
				return i
			}
		}
		return -1
	}
	insts := map[string]bool{}
	flushes := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvInstanceCreated {
			insts[ev.Instance] = true
		}
		if ev.Kind == obs.EvWalFlush {
			flushes++
			if ev.N < 1 || ev.DurNs <= 0 {
				t.Errorf("wal.flush without batch attribution: %+v", ev)
			}
		}
	}
	if len(insts) != 8 {
		t.Fatalf("instance.created for %d instances, want 8 (%d events)", len(insts), len(evs))
	}
	for id := range insts {
		c := firstIdx(obs.EvInstanceCreated, id)
		s := firstIdx(obs.EvInstanceStarted, id)
		f := firstIdx(obs.EvInstanceFinished, id)
		if c < 0 || s < 0 || f < 0 || c > s || s > f {
			t.Errorf("instance %s lifecycle out of order: created=%d started=%d finished=%d", id, c, s, f)
		}
	}
	if flushes == 0 {
		t.Error("no wal.flush events on the SSE tail of a group-commit run")
	}

	var hz obs.Healthz
	getJSON(t, base+"/healthz", &hz)
	if !hz.OK || hz.UptimeNs <= 0 {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.WalIdleNs < 0 {
		t.Errorf("wal staleness unreported after a group-commit run: %+v", hz)
	}

	var st obs.Status
	getJSON(t, base+"/statusz", &st)
	if st.States["finished"] != 8 || len(st.Instances) != 8 {
		t.Fatalf("statusz states=%v instances=%d, want 8 finished", st.States, len(st.Instances))
	}
	for _, in := range st.Instances {
		if in.Process != "demo" || in.Status != "finished" {
			t.Errorf("statusz instance = %+v", in)
		}
	}
	if q, ok := st.Latencies["engine.program.ns"]; !ok || q.Count != 16 || q.P50 > q.P99 {
		t.Errorf("statusz latencies[engine.program.ns] = %+v ok=%v", q, ok)
	}
	if st.Bus.Published == 0 {
		t.Error("statusz bus block empty")
	}

	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: %s", resp.Status)
	}

	// wftop renders the lingering fleet and exits on -until-done.
	wftop := buildWftop(t)
	out, err := exec.Command(wftop, "-addr", addr, "-interval", "50ms",
		"-until-done", "-timeout", "10s").CombinedOutput()
	if err != nil {
		t.Fatalf("wftop: %v\n%s", err, out)
	}
	for _, want := range []string{
		"wftop  " + addr, "8 instances", "finished=8",
		"LATENCY", "engine.program.ns", "INSTANCE", "demo",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("wftop output missing %q\n%s", want, out)
		}
	}

	// The flight dump is written when the run's main exits (before the
	// linger sleep); poll briefly for it, then check it mirrors the tail.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(dump); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight recorder dump never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad dump line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	if kinds[obs.EvInstanceFinished] != 8 || kinds[obs.EvWalFlush] == 0 {
		t.Errorf("flight dump kinds = %v", kinds)
	}
}

// TestOpsPprofGatedBehindFlag pins that the profiler is opt-in: without
// -pprof the /debug/pprof/ namespace 404s while the rest of the ops
// surface serves normally.
func TestOpsPprofGatedBehindFlag(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	_, addr := startOpsRun(t, bin, "-metrics-addr", "127.0.0.1:0", "-linger-ms", "10000", fdl)
	base := "http://" + addr

	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: %s, want 404", resp.Status)
	}
	var hz obs.Healthz
	getJSON(t, base+"/healthz", &hz)
	if !hz.OK {
		t.Fatalf("healthz = %+v", hz)
	}
	// No WAL in this run: staleness must stay -1 ("never"), not 0.
	if hz.WalIdleNs != -1 || hz.CheckpointIdleNs != -1 {
		t.Errorf("healthz staleness for WAL-less run = %+v, want -1", hz)
	}
	// The ops address is announced before the run builds its engine, and
	// the engine binds its instruments when it is built: scrape only once
	// the instance has finished (/events replays the recorder's ring, so a
	// finish that already happened is still seen).
	finished := func(evs []obs.Event) bool { return evs[len(evs)-1].Kind == obs.EvInstanceFinished }
	if evs := readSSE(t, base, finished, 10*time.Second); len(evs) == 0 || !finished(evs) {
		t.Fatalf("instance never finished; /events gave %d events", len(evs))
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "engine_program_invocations") {
		t.Errorf("/metrics missing engine instruments:\n%s", body)
	}
}

// TestFlightRecorderFlagStandsAlone runs with -flight-recorder but no
// ops server: the dump must still be written at process exit.
func TestFlightRecorderFlagStandsAlone(t *testing.T) {
	bin := buildWfrun(t)
	dir := t.TempDir()
	fdl := demoFDL(t, dir)
	dump := filepath.Join(dir, "flight.jsonl")
	out, err := exec.Command(bin, "-flight-recorder", dump, fdl).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last obs.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != obs.EvInstanceFinished {
		t.Errorf("dump's last event = %+v, want instance.finished", last)
	}
}
