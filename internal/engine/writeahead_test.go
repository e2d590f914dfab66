package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// groupLogOn opens a group-commit log over a fresh FileLog in the test's
// temp dir, both recording into reg, on a file system that kills the
// server at byte b (0: never).
func groupLogOn(t *testing.T, reg *obs.Registry, b int64) (*wal.GroupCommitLog, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	fl, err := wal.OpenFileLog(path, wal.WithMetricsRegistry(reg), wal.WithFS(wal.NewFaultFS(wal.FaultCrash, b)))
	if err != nil {
		t.Fatal(err)
	}
	return wal.NewGroupCommitLog(fl, wal.GroupWithMetricsRegistry(reg)), path
}

// goldenScript returns the process and abort script of the named golden
// case.
func goldenScript(t *testing.T, name string) (process string, script func(*rm.Injector)) {
	t.Helper()
	for _, gc := range goldenCases {
		if gc.name == name {
			return gc.process, gc.script
		}
	}
	t.Fatalf("no golden case %q", name)
	return "", nil
}

// recordKey identifies a WAL record within one instance.
type recordKey struct {
	Type wal.RecordType
	Path string
	Iter int
}

// recordsOfTrail derives, from an instance's audit trail, the record
// sequence its navigation produced: the trail and the record queue are fed
// by the same steps in the same order, whether or not a record ever
// reached the log.
func recordsOfTrail(trail []engine.Event) []recordKey {
	var out []recordKey
	for _, ev := range trail {
		switch {
		case ev.Kind == engine.EvCreated:
			out = append(out, recordKey{Type: wal.RecCreated})
		case ev.Kind == engine.EvStarted && ev.Program != "":
			out = append(out, recordKey{wal.RecStartedActivity, ev.Path, ev.Iter})
		case ev.Kind == engine.EvFinished:
			out = append(out, recordKey{wal.RecFinishedActivity, ev.Path, ev.Iter})
		case ev.Kind == engine.EvDone:
			out = append(out, recordKey{Type: wal.RecDone})
		}
	}
	return out
}

func keysOf(recs []wal.Record) []recordKey {
	out := make([]recordKey, len(recs))
	for i, r := range recs {
		out[i] = recordKey{r.Type, r.Path, r.Iter}
	}
	return out
}

// TestWriteAheadUnderGroupCrash kills the server beneath a real
// group-commit log under the travel saga and the Figure 3 transaction — at
// every frame end of the crash-free run and, short, inside every frame, so
// a cut falls between two barriers or in the middle of one's batch — in
// sequential and worker-pool mode, and checks the
// invariant the barrier exists for: a program body ran, or the instance
// reported finished, only after every earlier record of the instance was
// on disk — and what is on disk is always a prefix of the instance's
// record sequence, from which recovery reaches the crash-free output and
// trail.
func TestWriteAheadUnderGroupCrash(t *testing.T) {
	for _, golden := range []string{"travel-commit", "travel-compensated", "fig3-commit", "fig3-alternative"} {
		process, script := goldenScript(t, golden)
		newEngine := func(opts ...engine.Option) *engine.Engine {
			inj := rm.NewInjector()
			script(inj)
			var tick int64
			opts = append(opts, engine.WithClock(func() int64 { tick++; return tick }), engine.WithBus(obs.NewBus()))
			return atmEngine(t, inj, opts...)
		}
		cleanLog, cleanPath := groupLogOn(t, obs.NewRegistry(), 0)
		clean, err := newEngine().CreateInstanceID(process, "inst-1", nil, cleanLog)
		if err == nil {
			err = clean.Start()
		}
		if cerr := cleanLog.Close(); err != nil || cerr != nil || !clean.Finished() {
			t.Fatalf("%s: crash-free run: %v, close: %v", golden, err, cerr)
		}
		total := len(recordsOfTrail(clean.Trail()))
		ends, err := wal.FrameEnds(cleanPath)
		if err != nil || len(ends) != total {
			t.Fatalf("%s: crash-free run left %d frames for %d records, %v", golden, len(ends), total, err)
		}

		for _, workers := range []int{1, 4} {
			for _, short := range []bool{false, true} {
				for k := 1; k <= total; k++ {
					name := fmt.Sprintf("%s/workers=%d/short=%v/k=%d", golden, workers, short, k)
					t.Run(name, func(t *testing.T) {
						e := newEngine(engine.WithConcurrency(workers))
						// k == total is the end of the log: no crash.
						log, path := groupLogOn(t, obs.NewRegistry(), wal.CrashCut(ends, k, short))
						inst, err := e.CreateInstanceID(process, "inst-1", nil, log)
						if err != nil {
							t.Fatal(err)
						}
						err = inst.Start()
						if k < total && !errors.Is(err, wal.ErrCrash) {
							t.Fatalf("Start = %v, want the injected crash", err)
						}
						log.Close() // a crashed log reports its state again; the file is closed either way
						disk, _, err := wal.RepairFile(path)
						if err != nil {
							t.Fatal(err)
						}

						seq := recordsOfTrail(inst.Trail())
						if len(disk) > len(seq) || !reflect.DeepEqual(keysOf(disk), seq[:len(disk)]) {
							t.Fatalf("disk is not a prefix of the instance's records:\ndisk %v\n seq %v", keysOf(disk), seq)
						}
						// Barriers are taken in trail order and a failed one
						// is final, so the bodies that ran are the first
						// `ran` program starts of the sequence.
						ran := e.Metrics().Counter("engine.program.invocations").Value()
						started := int64(0)
						for i, key := range seq {
							if key.Type != wal.RecStartedActivity {
								continue
							}
							if started++; started <= ran && i >= len(disk) {
								t.Fatalf("a program ran whose %v record is not among the %d on disk", key, len(disk))
							}
						}
						if inst.Finished() && (len(disk) != total || disk[total-1].Type != wal.RecDone) {
							t.Fatalf("finished with %d of %d records on disk", len(disk), total)
						}
						if !inst.Finished() && k == total {
							t.Fatalf("no crash injected, yet not finished: %v", inst.Err())
						}

						if len(disk) == 0 {
							return // crashed before the instance existed durably
						}
						rec, err := engine.Recover(newEngine(), disk, nil)
						if err != nil || !rec.Finished() {
							t.Fatalf("recovery: %v (finished=%v)", err, rec != nil && rec.Finished())
						}
						if got, want := rec.Output().String(), clean.Output().String(); got != want {
							t.Errorf("recovered output %s, crash-free %s", got, want)
						}
						if !reflect.DeepEqual(rec.Trail(), clean.Trail()) {
							t.Errorf("recovered trail differs from the crash-free trail")
						}
					})
				}
			}
		}
	}
}
