// Command benchmark is this repository's one repeatable benchmark: four
// workloads of FMTM-compiled sagas and flexible transactions, six
// end-to-end metrics, and per-layer metrics from spans around the
// public calls into each module. README.md says why each workload and
// metric exists and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names; a test holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p75_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"engine.nav_us_per_op", "us"},
	{"engine.steps_per_op", "count"},
	{"engine.deadpath_per_op", "count"},
	{"engine.compensated_ratio", "ratio"},
	{"engine.submit_us_per_op", "us"},
	{"engine.queue_wait_p50_ms", "ms"},
	{"engine.rebalanced_per_kop", "count"},
	{"engine.ckpt_passes_per_kop", "count"},
	{"wal.ckpt_write_ms_p50", "ms"},
	{"wal.ckpt_bytes_per_kop", "B"},
	{"rm.program_us_per_op", "us"},
	{"rm.invocations_per_op", "count"},
	{"wal.append_wait_us_per_rec", "us"},
	{"wal.records_per_op", "count"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.batch_mean_recs", "count"},
	{"wal.rotations_per_kop", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.disk_kb_per_op_after", "KiB"},
	{"wal.encode_ns_per_rec", "ns"},
	{"wal.decode_ns_per_rec", "ns"},
	{"wal.frame_bytes_per_rec", "B"},
	{"wal.ckpt_load_ms", "ms"},
	{"wal.tail_read_ms", "ms"},
	{"engine.recover_replay_ms", "ms"},
	{"wal.read_recs_per_s", "1/s"},
	{"engine.replayed_recs_per_cycle", "count"},
	{"history.locate_ms_per_query", "ms"},
	{"history.replay_ms_per_query", "ms"},
	{"history.records_read_per_query", "count"},
	{"fmtm.pipeline_ms", "ms"},
	{"fdl.parse_ms", "ms"},
	{"engine.register_ms", "ms"},
	{"bench.op_p90_ms", "ms"},
	{"bench.op_p99_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.round_iqr_ratio", "ratio"},
	{"bench.cpu_ms_per_op", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.disk_fsync_p50_us", "us"},
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "atm-mem, fleet-durable, arrive-open or restart-read (with -calibrate also: all)")
		seed      = flag.Uint64("seed", 1, "seed of the instance outcomes, the arrival schedule and the crash points")
		seconds   = flag.Float64("seconds", 20, "how long the timed rounds run")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run, spans to <workdir>/spans-<workload>.jsonl; another value: the same, spans to that file")
		workdir   = flag.String("workdir", ".bench_build/work", "directory under which the run makes, and removes, its one temporary root")
		calibrate = flag.Int("calibrate", 0, "run two sets of this many runs of the workload and print how well they agree")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument", flag.Arg(0))
		return 2
	}
	if *calibrate > 0 {
		if err := runCalibration(*workload, *seed, *seconds, *workdir, *calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("benchmark workload=%s seed=%d seconds=%g trace=%s\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s workdir=%s fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workdir, fsType(*workdir))
	if w.cpus > runtime.NumCPU() || w.cpus > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "benchmark: %s keeps %d goroutines busy (clients and workers), this machine has %d CPUs: refusing to measure its own load\n",
			w.name, w.cpus, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
		return 1
	}

	p := params{workload: w.name, seed: *seed, seconds: *seconds, traced: *trace != "0"}
	switch *trace {
	case "0":
	case "1":
		p.spanFile = filepath.Join(*workdir, "spans-"+w.name+".jsonl")
	default:
		p.spanFile = *trace
	}
	// Everything the run writes, bar the span file, is under one root that
	// goes away however the run ends.
	root, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(root)
	p.root = root

	res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("rounds=%d ops_per_round=%d attempted=%d failed=%d\n", res.rounds, res.opsPerRound, res.attempted, res.failed)
	defs := endToEnd
	if p.traced {
		fmt.Println("end-to-end metrics of this traced run (compare untraced runs only):")
		printMetrics(endToEnd, res.values)
		printSpans(res.spans)
		fmt.Println("per-layer metrics, spans of the last traced round in", p.spanFile)
		defs = perLayer
	}
	printMetrics(defs, res.values)
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{res.values[d.name], d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printSpans shows where the traced ops spent their time: a span's self
// time is its duration minus what its children cover, so the shares add
// up to the op.
func printSpans(tot *spanTotals) {
	fmt.Println("spans of the traced rounds:")
	fmt.Printf("  %-16s %10s %14s %8s\n", "name", "count", "self ms", "of op")
	for kind, name := range spanNames {
		if tot.count[kind] == 0 {
			continue
		}
		fmt.Printf("  %-16s %10d %14.3f %7.2f%%\n", name, tot.count[kind],
			float64(tot.self[kind])/1e6, 100*float64(tot.self[kind])/float64(tot.dur[spOp]))
	}
}

func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// fsType names the file system dir is on, for reading a result: the
// durable workload measures that device.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlay"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
