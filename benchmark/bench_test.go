package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The counts a seed fixes exactly, whatever the scheduling.
var exactMetrics = []string{
	"engine.steps_per_op", "engine.deadpath_per_op", "engine.compensated_ratio",
	"rm.invocations_per_op", "wal.records_per_op",
	"engine.replayed_recs_per_cycle", "history.records_read_per_query",
}

// smallRun is a traced run of a few small rounds: seconds of work, no
// timing asserted.
func smallRun(t *testing.T, workload string, seed uint64) (*result, string) {
	t.Helper()
	ops := 40
	if workload == "restart-read" {
		ops = 1
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := run(params{workload: workload, seed: seed, traced: true, spanFile: spans,
		root: t.TempDir(), rounds: 4, ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed verification", workload, res.failed, res.attempted)
	}
	return res, spans
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, spanFile := smallRun(t, w.name, 11)
			b, _ := smallRun(t, w.name, 11)
			c, _ := smallRun(t, w.name, 12)

			// Every metric of both lists is there.
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if _, ok := a.values[d.name]; !ok || d.unit == "" {
					t.Errorf("metric %s: not measured, or no unit", d.name)
				}
			}
			for _, d := range endToEnd {
				if a.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, must never be 0", d.name, a.values[d.name])
				}
			}

			// The same seed repeats the exact counts; another seed moves them.
			differs := false
			for _, m := range exactMetrics {
				if a.values[m] != b.values[m] {
					t.Errorf("%s: %g and %g for the same seed", m, a.values[m], b.values[m])
				}
				differs = differs || a.values[m] != c.values[m]
			}
			if !differs {
				t.Errorf("seeds 11 and 12 give the same counts: %v", exactMetrics)
			}

			checkSpanFile(t, spanFile)
		})
	}
}

// checkSpanFile reads a span file back and checks that in every op the
// self times add up to the root within 1%.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kindOf := map[string]uint8{}
	for k, name := range spanNames {
		kindOf[name] = uint8(k)
	}
	ops := map[int][]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		kind, ok := kindOf[l.Name]
		if !ok {
			t.Fatalf("span name %q is not one the benchmark documents", l.Name)
		}
		if l.ID != len(ops[l.Op]) {
			t.Fatalf("op %d: span ids out of order", l.Op)
		}
		ops[l.Op] = append(ops[l.Op], span{kind: kind, parent: int32(l.Parent), start: l.Start, end: l.End})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("span file is empty")
	}
	for op, spans := range ops {
		root := spans[0]
		if root.kind != spOp || root.parent != -1 {
			t.Fatalf("op %d: first span is not the root", op)
		}
		var sum int64
		for _, self := range selfTimes(spans) {
			sum += self
		}
		if dur := root.end - root.start; sum < dur*99/100 || sum > dur*101/100 {
			t.Errorf("op %d: self times add up to %d ns, the op took %d ns", op, sum, dur)
		}
	}
}

func TestArrivalsRepeat(t *testing.T) {
	a, b := arrivals(5, 3, 500), arrivals(5, 3, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed and round give two arrival schedules")
	}
	if reflect.DeepEqual(a, arrivals(6, 3, 500)) || reflect.DeepEqual(a, arrivals(5, 4, 500)) {
		t.Error("another seed or round gives the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,40] and [30,60] (overlapping: counted
	// once) and a grandchild [12,20].
	spans := []span{
		{kind: spOp, parent: -1, start: 0, end: 100},
		{kind: spInstanceRun, parent: 0, start: 10, end: 40},
		{kind: spQueueWait, parent: 0, start: 30, end: 60},
		{kind: spWalAppend, parent: 1, start: 12, end: 20},
	}
	if got, want := selfTimes(spans), []int64{50, 22, 30, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestBandMean(t *testing.T) {
	// Two clusters, 1 and 3, with the median on the edge between them: the
	// band mean moves with the clusters' shares, not by their distance.
	mk := func(ones, threes int) []float64 {
		var v []float64
		for i := 0; i < ones; i++ {
			v = append(v, 1)
		}
		for i := 0; i < threes; i++ {
			v = append(v, 3)
		}
		return v
	}
	if got := bandMean(mk(50, 50), 0.5); got != 2 {
		t.Errorf("band mean of an even split = %g, want 2", got)
	}
	if got := bandMean(mk(52, 48), 0.5); got < 1.7 || got >= 2 {
		t.Errorf("band mean of a 52/48 split = %g, want a little under 2", got)
	}
	if got := bandMean([]float64{7}, 0.75); got != 7 {
		t.Errorf("band mean of one sample = %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles %v, want %v", got, want)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the names and units the
// command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the command has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the command has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d+%d metrics listed, the command prints %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := doc.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, the command prints %s in %s", i, m, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %+v, the command prints %s in %s", i, m, d.name, d.unit)
		}
	}
}
