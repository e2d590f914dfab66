// Command wfrun imports an FDL definition file, instantiates a process
// template and navigates it to completion, printing the audit trail — the
// right-hand side of the Figure 5 pipeline.
//
// Every program registered in the FDL file is bound to a simulated
// transactional resource manager whose outcome can be scripted from the
// command line, so the compensation and alternative-path machinery of
// generated processes can be observed without writing any code:
//
//	wfrun -process travel -abort book_car travel.fdl
//	wfrun -process fig3 -abort T8 -abort-n T7=2 fig3.fdl
//
// With -wal the navigation log is written to a CRC-framed file (add
// -fsync for a durable append per record), and -crash-at N simulates a
// server failure after N records: the run stops with an injected crash,
// the log is repaired (truncate-and-resume) and a fresh engine recovers
// the instance from it, demonstrating the §3.3 forward-recovery path:
//
//	wfrun -process travel -abort book_car -wal travel.wal -crash-at 5 travel.fdl
//
// Observability: -metrics dumps the engine/WAL metric registry in
// Prometheus text format after the run and -spans renders the instance's
// span tree derived from the audit trail. -metrics-addr starts the live
// ops surface while the run executes: /metrics (plus ?format=json),
// /healthz (liveness plus WAL/checkpointer staleness), /statusz
// (per-instance state, fleet gauges, latency quantiles), /events (a
// Server-Sent-Events tail of the engine/WAL event bus; tune the
// per-client queue with -sse-buffer) and, with -pprof, /debug/pprof/*.
// -linger-ms keeps the surface serving that long after the run completes
// so a monitor attached late still sees it; -flight-recorder FILE dumps
// the bus's retained event ring as JSONL at exit, success or failure.
// -trail-export FILE streams every bus event to disk as a schema-stamped
// history/v1 trail — unlike the flight recorder's bounded ring it
// retains the whole run, and the writer is flushed on every exit path
// (normal, fatal, forced second-signal exit), so even a killed run
// leaves a queryable prefix for wfquery:
//
//	wfrun -process travel -n 8 -parallel 4 -metrics-addr :9090 -pprof travel.fdl
//	wftop -addr localhost:9090
//
// Fleet mode executes many instances of the same template concurrently
// against a bounded scheduler and prints an aggregate summary instead of
// a per-instance trail: -n sets the fleet size, -parallel the number of
// instances in flight. -max-queue bounds the admission queue beyond the
// workers and -shed rejects (and counts) arrivals that find it full
// instead of blocking the producer — the overload-control knobs. With
// -wal the whole fleet shares one log; -group-commit batches the fleet's
// appends into one fsync per flush (tune with -flush-ms and -batch):
//
//	wfrun -process travel -wal travel.wal -group-commit -n 64 -parallel 8 -metrics travel.fdl
//
// With -shards k > 1 the fleet is consistent-hash partitioned across k
// engine shards: each shard runs -parallel workers with its own bounded
// admission queue, and with -wal the path becomes the fleet root
// directory holding one shard-NN subdirectory per shard, each with its
// own segmented WAL (sharing -group-commit, -fsync and -wal-format).
// The summary adds per-shard placement counts. A sharded run is resumed
// with -resume -shards k -wal DIR, which recovers every shard directory
// independently (-checkpoint is incompatible: each shard owns its
// checkpointer). Open-loop load generation against the same sharded
// fleet lives in the companion command wfload:
//
//	wfrun -process travel -n 64 -shards 4 -parallel 2 -wal fleet/ -group-commit travel.fdl
//	wfrun -resume -shards 4 -wal fleet/ travel.fdl
//
// With -checkpoint DIR the -wal path becomes a segment directory: the
// log rotates into bounded segments and a background checkpointer folds
// sealed segments into crash-consistent checkpoints, so restart work is
// bounded by the checkpoint period instead of the history length.
// -resume recovers every instance from an existing log instead of
// starting new ones, through the one recovery ladder (wal.Ladder via
// engine.RecoverLadder) whatever the layout — seeded from the newest
// usable checkpoint when -checkpoint is given or the root is sharded, by
// full replay of a single log file otherwise:
//
//	wfrun -process travel -n 16 -wal segs/ -checkpoint segs/ -group-commit travel.fdl
//	wfrun -process travel -resume -wal segs/ -checkpoint segs/ travel.fdl
//
// With -archive DIR (requires -checkpoint, or -shards where each shard
// owns a checkpointer) sealed segments and checkpoints are copied
// asynchronously to a directory-backed archive store with verification,
// retries and a circuit breaker; local pruning waits for verified
// archived copies, so a degraded archive grows local retention instead
// of stalling the run. -resume -archive adds a fourth recovery rung
// that fetches missing or damaged checkpoints and sealed segments back
// from the store (CRC-verified), and the summary line names the rung
// that satisfied recovery:
//
//	wfrun -process travel -n 16 -wal segs/ -checkpoint segs/ -archive arch/ travel.fdl
//	wfrun -process travel -resume -wal segs/ -checkpoint segs/ -archive arch/ travel.fdl
//
// Flag misuse exits 2 (usage), runtime failures exit 1: -fsync,
// -crash-at, -group-commit, -resume and -checkpoint require -wal;
// -flush-ms and -batch require -group-commit; -crash-at is incompatible
// with -group-commit, with -n > 1, with -resume and with -checkpoint
// (crash injection is per-record and single-instance — the batch- and
// checkpoint-boundary soaks live in wfbench E8/E9).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fdl"
	"repro/internal/fmtm"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	process := flag.String("process", "", "process template to instantiate (default: the file's first process)")
	trace := flag.Bool("trace", true, "print the audit trail")
	walPath := flag.String("wal", "", "write the navigation log to this file (default: in-memory)")
	walFormat := flag.String("wal-format", "text", "record framing for new WAL files/segments: text or binary (requires -wal; existing files replay either way)")
	fsync := flag.Bool("fsync", false, "fsync the WAL after every record (requires -wal)")
	crashAt := flag.Int("crash-at", 0, "inject a crash after N WAL records, then repair and recover (requires -wal)")
	metrics := flag.Bool("metrics", false, "dump the metric registry (Prometheus text format) after the run")
	metricsAddr := flag.String("metrics-addr", "", "serve metrics over HTTP on this address while running (e.g. :9090)")
	spans := flag.Bool("spans", false, "print the instance's span tree derived from the audit trail")
	fleetN := flag.Int("n", 1, "fleet size: run N instances of the process and print an aggregate summary")
	shardsN := flag.Int("shards", 1, "engine shards: consistent-hash partition fleet instances across k shards, each with its own workers, admission queue and (with -wal) its own WAL under WAL/shard-NN/ (requires -n > 1 or -resume)")
	parallel := flag.Int("parallel", 1, "fleet workers: how many instances execute at once")
	maxQueue := flag.Int("max-queue", 0, "fleet admission queue depth beyond the -parallel workers (requires -n > 1)")
	shed := flag.Bool("shed", false, "reject (and count) fleet instances arriving while the admission queue is full instead of blocking the producer (requires -n > 1)")
	breaker := flag.Bool("breaker", false, "guard every program with a circuit breaker and pool retries in a shared retry budget; breaker states appear on /statusz")
	groupCommit := flag.Bool("group-commit", false, "batch WAL appends from concurrent instances into one fsync per flush (requires -wal)")
	flushMs := flag.Int("flush-ms", 0, "group-commit accumulation window in milliseconds (0 = commit pipelining only; requires -group-commit)")
	batch := flag.Int("batch", 64, "group-commit max records per batch (requires -group-commit)")
	resume := flag.Bool("resume", false, "recover every instance from the existing -wal log (and -checkpoint dir) instead of starting a new run")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: -wal becomes a segment directory, a background checkpointer bounds restart work, and -resume seeds recovery from the newest checkpoint (requires -wal)")
	archiveDir := flag.String("archive", "", "archive directory: sealed segments and checkpoints copy asynchronously to this directory-backed store, local pruning waits for verified archived copies, and -resume can fetch missing or damaged blobs back from it (requires -checkpoint or -shards)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the ops server (requires -metrics-addr)")
	sseBuffer := flag.Int("sse-buffer", 256, "per-client event queue depth for the /events SSE tail (requires -metrics-addr)")
	lingerMs := flag.Int("linger-ms", 0, "keep the ops HTTP surface serving this many milliseconds after the run completes (requires -metrics-addr)")
	flightPath := flag.String("flight-recorder", "", "dump the flight recorder's retained events as JSONL to this file at exit, success or failure")
	trailPath := flag.String("trail-export", "", "stream every bus event to this file as a history/v1 JSONL trail export (the whole run, flushed on every exit path — the input of wfquery agg/tail)")
	var aborts, abortNs multiFlag
	flag.Var(&aborts, "abort", "program that aborts on every attempt (repeatable)")
	flag.Var(&abortNs, "abort-n", "program that aborts the first k attempts, as name=k (repeatable)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wfrun [-process name] [-abort prog]... [-abort-n prog=k]... [-breaker] [-wal file [-fsync] [-crash-at n] [-group-commit [-flush-ms n] [-batch n]] [-checkpoint dir [-archive dir]] [-resume]] [-n fleet [-shards k] [-parallel p] [-max-queue n] [-shed]] [-metrics] [-metrics-addr :port [-pprof] [-sse-buffer n] [-linger-ms n]] [-flight-recorder file] [-trail-export file] [-spans] file.fdl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Flag misuse is a usage error (exit 2), distinct from runtime
	// failures (exit 1): scripts can tell a bad invocation from a bad run.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	usageError := func(msg string) {
		fmt.Fprintln(os.Stderr, "wfrun: "+msg)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *walPath == "" && (*fsync || *crashAt > 0):
		usageError("-fsync and -crash-at require -wal")
	case *walPath == "" && *groupCommit:
		usageError("-group-commit requires -wal")
	case *walPath == "" && explicit["wal-format"]:
		usageError("-wal-format requires -wal")
	case *walFormat != "text" && *walFormat != "binary":
		usageError("-wal-format must be text or binary")
	case !*groupCommit && (explicit["flush-ms"] || explicit["batch"]):
		usageError("-flush-ms and -batch require -group-commit")
	case *flushMs < 0 || *batch < 1:
		usageError("-flush-ms must be >= 0 and -batch >= 1")
	case *fleetN < 1 || *parallel < 1:
		usageError("-n and -parallel must be >= 1")
	case *crashAt > 0 && *groupCommit:
		usageError("-crash-at is incompatible with -group-commit (crash injection is per-record; see wfbench E8 for the group-commit crash soak)")
	case *crashAt > 0 && *fleetN > 1:
		usageError("-crash-at is incompatible with fleet mode (-n > 1)")
	case *resume && *walPath == "":
		usageError("-resume requires -wal")
	case *ckptDir != "" && *walPath == "":
		usageError("-checkpoint requires -wal")
	case *resume && *crashAt > 0:
		usageError("-resume is incompatible with -crash-at (resume recovers an existing log; -crash-at injects a fresh crash)")
	case *ckptDir != "" && *crashAt > 0:
		usageError("-checkpoint is incompatible with -crash-at (the checkpointed crash soak lives in wfbench E9)")
	case *metricsAddr == "" && (*pprofOn || explicit["sse-buffer"] || explicit["linger-ms"]):
		usageError("-pprof, -sse-buffer and -linger-ms require -metrics-addr")
	case *sseBuffer < 1 || *lingerMs < 0:
		usageError("-sse-buffer must be >= 1 and -linger-ms >= 0")
	case *fleetN <= 1 && (explicit["max-queue"] || *shed):
		usageError("-max-queue and -shed require fleet mode (-n > 1)")
	case *maxQueue < 0:
		usageError("-max-queue must be >= 0")
	case *shardsN < 1:
		usageError("-shards must be >= 1")
	case *shardsN > 1 && *fleetN <= 1 && !*resume:
		usageError("-shards requires fleet mode (-n > 1) or -resume")
	case *shardsN > 1 && *ckptDir != "":
		usageError("-checkpoint is incompatible with -shards (each shard owns its checkpointer inside its shard directory)")
	case *archiveDir != "" && *ckptDir == "" && *shardsN <= 1:
		usageError("-archive requires -checkpoint or -shards (the checkpointer owns the archiver's enqueue points)")
	case *archiveDir != "" && *walPath == "":
		usageError("-archive requires -wal")
	}

	// The flight recorder taps the bus whenever something will consume its
	// ring: a -flight-recorder dump at exit, or the ops server's /events
	// replay. startOps attaches it from the same tap that tracks WAL
	// staleness for /healthz.
	var flightRec *obs.Recorder
	if *flightPath != "" || *metricsAddr != "" {
		flightRec = obs.NewRecorder(obs.DefaultRecorderSize)
	}
	var ops *opsServer
	if *metricsAddr != "" {
		s, err := startOps(obs.Default, obs.DefaultBus, flightRec, *sseBuffer, *pprofOn, *metricsAddr)
		if err != nil {
			fatal(err)
		}
		ops = s
	} else if flightRec != nil {
		obs.DefaultBus.Attach(flightRec.Record)
	}
	// The trail export taps the bus synchronously for the run's whole
	// duration: unlike the flight recorder's ring it misses nothing, and
	// its Close is wired into every exit path below so a fatal() or a
	// forced second-signal exit still flushes a queryable prefix.
	var trailW *history.Writer
	if *trailPath != "" {
		w, err := history.NewWriter(*trailPath)
		if err != nil {
			fatal(err)
		}
		w.Attach(obs.DefaultBus)
		trailW = w
	}
	// Graceful shutdown: the first SIGINT/SIGTERM asks the run to drain —
	// fleet mode stops admitting new instances and lets the ones in flight
	// finish, after which the normal exit path stops the checkpointer,
	// closes the log and dumps the flight recorder; a closed stop channel
	// also cuts the -linger-ms window short. A second signal forces exit:
	// the flight recorder is dumped (the run's last evidence) and the
	// process leaves with the conventional 128+SIGINT code.
	stop := make(chan struct{})
	dumpFlight := func() {
		if flightRec != nil && *flightPath != "" {
			if err := flightRec.DumpFile(*flightPath); err != nil {
				fmt.Fprintf(os.Stderr, "wfrun: flight recorder: %v\n", err)
			}
		}
		if trailW != nil {
			// Idempotent: the normal return, fatal() and the forced-exit
			// signal path all funnel here; the first close flushes.
			if err := trailW.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "wfrun: trail export: %v\n", err)
			}
		}
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "wfrun: signal received, draining (signal again to force exit)")
		close(stop)
		<-sigc
		fmt.Fprintln(os.Stderr, "wfrun: second signal, forcing exit")
		dumpFlight()
		os.Exit(130)
	}()
	shutdownOps = func() {
		dumpFlight()
		if *lingerMs > 0 {
			select {
			case <-time.After(time.Duration(*lingerMs) * time.Millisecond):
			case <-stop:
			}
		}
	}
	defer shutdownOps()

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	file, err := fdl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if err := file.Check(); err != nil {
		fatal(err)
	}
	if len(file.Processes) == 0 {
		fatal(fmt.Errorf("no processes in %s", flag.Arg(0)))
	}
	name := *process
	if name == "" {
		name = file.Processes[0].Name
	}

	// build assembles a fresh engine with freshly scripted resource
	// managers; recovery after -crash-at uses a second one, exactly as a
	// restarted workflow server would.
	build := func() (*engine.Engine, *rm.Recorder) {
		inj := rm.NewInjector()
		for _, a := range aborts {
			inj.AbortAlways(a)
		}
		for _, spec := range abortNs {
			parts := strings.SplitN(spec, "=", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("-abort-n wants name=k, got %q", spec))
			}
			k, err := strconv.Atoi(parts[1])
			if err != nil {
				fatal(fmt.Errorf("-abort-n %q: %v", spec, err))
			}
			inj.AbortN(parts[0], k)
		}
		rec := &rm.Recorder{}
		var eopts []engine.Option
		if *breaker {
			// One breaker per program plus a shared retry budget: a failing
			// resource manager trips open and is probed instead of hammered,
			// and retry storms drain the budget before they melt the fleet.
			set := rm.NewBreakerSet(rm.BreakerConfig{}, nil, nil)
			eopts = append(eopts,
				engine.WithBreakerFactory(set.Factory()),
				engine.WithRetryBudget(engine.NewRetryBudget(64, 0)))
			ops.setBreakers(set.States) // nil-safe
		}
		e := engine.New(eopts...)
		ops.setEngine(e) // nil-safe; /statusz shows the freshest engine
		for _, prog := range file.Programs {
			if prog.Name == fmtm.CopyName {
				if err := fmtm.RegisterRuntime(e); err != nil {
					fatal(err)
				}
				continue
			}
			sub := rm.Subtransaction{Name: prog.Name}
			if err := e.RegisterProgram(prog.Name, rm.Program(sub, inj, rec)); err != nil {
				fatal(err)
			}
		}
		if err := fmtm.Install(e, file); err != nil {
			fatal(err)
		}
		return e, rec
	}

	if *resume {
		if *shardsN > 1 {
			resumeSharded(build, *walPath, *archiveDir, *metrics)
			return
		}
		resumeRun(build, *walPath, *ckptDir, *archiveDir, *trace, *spans, *metrics)
		return
	}

	recFormat := wal.FormatText
	if *walFormat == "binary" {
		recFormat = wal.FormatBinary
	}
	if *shardsN > 1 {
		// Sharded fleet mode: the fleet opens one WAL per shard under
		// WAL/shard-NN itself, so the single-log setup below is skipped.
		e, _ := build()
		runSharded(e, name, *shardsN, *fleetN, *parallel, *maxQueue, *shed,
			*walPath, *archiveDir, *groupCommit, *fsync, recFormat, *flushMs, *batch, stop, *metrics)
		return
	}

	var log wal.Log
	var flog *wal.FileLog
	var crashLog *wal.MemLog // -crash-at: what the instance runs on
	var slog *wal.SegmentedLog
	var gclog *wal.GroupCommitLog
	var ckpt *engine.Checkpointer
	var arch *wal.Archiver
	if *walPath != "" {
		if *ckptDir != "" {
			// Checkpointed mode: -wal names a segment directory; a
			// background checkpointer folds sealed segments while the run
			// executes, so a later -resume replays only the tail.
			var sopts []wal.SegmentOption
			if *fsync {
				sopts = append(sopts, wal.SegmentFsync())
			}
			sopts = append(sopts, wal.SegmentFormat(recFormat))
			slog, err = wal.OpenSegmentedLog(*walPath, sopts...)
			if err != nil {
				fatal(err)
			}
			log = slog
			if *groupCommit {
				gclog = wal.NewGroupCommitSegmented(slog,
					wal.GroupWindow(time.Duration(*flushMs)*time.Millisecond),
					wal.GroupMaxBatch(*batch))
				log = gclog
			}
			ckopts := []engine.CheckpointerOption{
				engine.CheckpointDir(*ckptDir), engine.CheckpointEveryRecords(64),
			}
			if *archiveDir != "" {
				st, err := wal.NewDirStore(*archiveDir)
				if err != nil {
					fatal(err)
				}
				arch = wal.NewArchiver(st)
				arch.Start()
				ckopts = append(ckopts, engine.CheckpointArchive(arch))
			}
			ckpt = engine.NewCheckpointer(slog, ckopts...)
			ckpt.Start()
		} else {
			var opts []wal.FileOption
			if *fsync {
				opts = append(opts, wal.WithFsync())
			}
			opts = append(opts, wal.WithFormat(recFormat))
			flog, err = wal.OpenFileLog(*walPath, opts...)
			if err != nil {
				fatal(err)
			}
			log = flog
			if *groupCommit {
				gclog = wal.NewGroupCommitLog(flog,
					wal.GroupWindow(time.Duration(*flushMs)*time.Millisecond),
					wal.GroupMaxBatch(*batch))
				log = gclog
			}
			if *crashAt > 0 {
				// A record-counted clean crash needs no file-level injector:
				// the instance runs on a log that dies after N records, and
				// what survived is written to the -wal file before recovery.
				crashLog = &wal.MemLog{CrashAfter: *crashAt}
				log = crashLog
			}
		}
	}
	closeLog := func() error {
		// The final checkpoint pass runs before the log closes (it may
		// rotate the active segment); by now every append has returned, so
		// nothing is in flight.
		var err error
		if ckpt != nil {
			err = ckpt.Stop()
		}
		if arch != nil {
			// Best effort: give the queue a moment to flush so a later
			// -resume can fetch from the archive, but never block shutdown
			// on a degraded store — unarchived blobs stay local (pruning is
			// archive-gated) and re-enqueue on the next run.
			arch.Drain(2 * time.Second)
			arch.Stop()
		}
		if gclog != nil {
			if cerr := gclog.Close(); err == nil {
				err = cerr
			}
		} else if slog != nil {
			if cerr := slog.Close(); err == nil {
				err = cerr
			}
		} else if flog != nil {
			if cerr := flog.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}

	e, rec := build()

	if *fleetN > 1 {
		// One shard, no directory: every instance appends to the one -wal
		// log, which closeLog releases (the fleet closes only what it opened).
		cfg := engine.FleetConfig{Shards: 1, Parallel: *parallel, MaxQueue: *maxQueue, Shed: *shed, Stop: stop}
		if log != nil {
			cfg.WrapLog = func(int, wal.Log) wal.Log { return log }
		}
		f, err := engine.NewFleet(e, cfg)
		if err != nil {
			fatal(err)
		}
		res, err := f.Run(name, *fleetN, nil)
		if err != nil {
			fatal(err)
		}
		f.Close()
		if err := closeLog(); err != nil {
			fatal(err)
		}
		secs := res.Elapsed.Seconds()
		fmt.Printf("fleet: %d instances of %s: finished=%d failed=%d shed=%d elapsed=%s (%.1f instances/sec)\n",
			res.Launched, name, res.Finished, res.Failed, res.Shed,
			res.Elapsed.Round(time.Millisecond), float64(res.Launched)/secs)
		if res.Stopped {
			fmt.Printf("fleet: drained after stop signal: %d of %d instances never admitted\n",
				*fleetN-res.Launched-res.Shed, *fleetN)
		}
		if *metrics {
			fmt.Println("-- metrics --")
			obs.WritePrometheus(os.Stdout, obs.Default)
		}
		if res.Failed > 0 {
			fatal(fmt.Errorf("%d of %d instances failed: %v", res.Failed, res.Launched, res.Err))
		}
		return
	}
	inst, err := e.CreateInstance(name, nil, log)
	if err != nil {
		fatal(err)
	}
	err = inst.Start()
	switch {
	case *crashAt > 0:
		if !errors.Is(err, wal.ErrCrash) {
			fatal(fmt.Errorf("expected injected crash after %d records, got: %v", *crashAt, err))
		}
		if err := flog.AppendBatch(crashLog.Records()); err != nil {
			fatal(err)
		}
		if err := flog.Close(); err != nil {
			fatal(err)
		}
		e2, rec2 := build()
		insts, h, err := engine.RecoverLadder(e2, wal.Ladder{Path: *walPath}, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("crashed after %d records; repaired %s: %d records kept, %d bytes truncated\n",
			*crashAt, *walPath, len(h.Tail), h.Torn)
		inst, rec = insts[0], rec2 // the one instance whose created record opened the log
	case err != nil:
		fatal(err)
	default:
		if err := closeLog(); err != nil {
			fatal(err)
		}
	}
	if *trace {
		for _, ev := range inst.Trail() {
			fmt.Println(ev)
		}
	}
	if *spans {
		fmt.Print(inst.Trace().Render())
	}
	fmt.Printf("instance %s of %s: finished=%v\n", inst.ID(), name, inst.Finished())
	if events := rec.Events(); len(events) > 0 {
		var parts []string
		for _, e := range events {
			parts = append(parts, e.String())
		}
		fmt.Printf("transactional history: %s\n", strings.Join(parts, " "))
	}
	fmt.Printf("output: %s\n", inst.Output())
	if *metrics {
		fmt.Println("-- metrics --")
		obs.WritePrometheus(os.Stdout, obs.Default)
	}
}

// resumeRun recovers every instance recorded in the log a previous
// (possibly crashed) wfrun left behind and resumes each to completion,
// through the one recovery ladder (engine.RecoverLadder): a single log
// file is repaired and replayed whole; with a checkpoint directory,
// recovery seeds live instances from the newest usable checkpoint and
// replays only the segment tail — the fallback rungs (previous
// checkpoint, archive fetch with -archive, then full replay) engage
// automatically when newer checkpoints are damaged, and the summary names
// the rung that satisfied recovery.
func resumeRun(build func() (*engine.Engine, *rm.Recorder), walPath, ckptDir, archiveDir string, trace, spans, metrics bool) {
	e, rec := build()
	ladder := wal.Ladder{Path: walPath, Checkpoints: ckptDir}
	if archiveDir != "" { // flag validation: -archive without -shards implies -checkpoint
		st, err := wal.NewDirStore(archiveDir)
		if err != nil {
			fatal(err)
		}
		ladder.Store = st
	}
	insts, h, err := engine.RecoverLadder(e, ladder, nil)
	doneN := 0
	if h != nil { // the walk succeeded: report it even when an instance then failed to recover
		doneN = len(h.Done())
		switch cp := h.Checkpoint; {
		case cp != nil:
			fmt.Printf("checkpoint seq %d covers segments <= %d: %d live records, %d instances already finished; replaying %d tail records (%d bytes truncated)\n",
				cp.Seq, cp.Cover, len(cp.Records), doneN, len(h.Tail), h.Torn)
		case ckptDir != "":
			fmt.Printf("no usable checkpoint in %s: full replay of %d records (%d bytes truncated)\n",
				ckptDir, len(h.Tail), h.Torn)
		default:
			fmt.Printf("repaired %s: %d records kept, %d bytes truncated\n", walPath, len(h.Tail), h.Torn)
		}
	}
	if err != nil {
		fatal(err)
	}
	finished := 0
	for _, inst := range insts {
		if inst.Finished() {
			finished++
		}
	}
	failed := len(insts) - finished
	if len(insts) == 1 {
		inst := insts[0]
		if trace {
			for _, ev := range inst.Trail() {
				fmt.Println(ev)
			}
		}
		if spans {
			fmt.Print(inst.Trace().Render())
		}
		if events := rec.Events(); len(events) > 0 {
			var parts []string
			for _, e := range events {
				parts = append(parts, e.String())
			}
			fmt.Printf("transactional history: %s\n", strings.Join(parts, " "))
		}
		fmt.Printf("output: %s\n", inst.Output())
	}
	fmt.Printf("resumed %d instances (%d already finished in checkpoint): finished=%d failed=%d (recovery rung: %s)\n",
		len(insts), doneN, finished, failed, h.Rung)
	if metrics {
		fmt.Println("-- metrics --")
		obs.WritePrometheus(os.Stdout, obs.Default)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d resumed instances failed", failed))
	}
}

// shutdownOps runs on every exit path — the normal return and fatal() —
// dumping the flight recorder and holding the ops surface through the
// -linger-ms window so a monitor attached late still sees the run. main
// replaces the no-op once the recorder and flags are known.
var shutdownOps = func() {}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfrun: %v\n", err)
	shutdownOps()
	os.Exit(1)
}
