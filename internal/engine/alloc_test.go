package engine_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// travelSagaAllocCeiling bounds the allocations of creating and running
// one FMTM-compiled travel saga to its commit on wal.Discard. The engine
// that rebuilt adjacency maps, map-backed containers and a []Event trail
// for every instance made 126; slot-vector containers and plans brought it
// to 52, records that carry the slot vector instead of a Snapshot map to
// 46, containers cloned as one object with their slots to 36, and records
// that share their container's slots, shared read-only defaults, one
// joined path string per nested scope and pooled invocations to 17 (20
// under the race detector, whose sync.Pool drops some of what it is
// handed). The gate leaves room for a toolchain to move that, not for a
// copy per record, a clone per default or a string per activity path to
// come back.
const travelSagaAllocCeiling = 21

// TestTravelSagaAllocCeiling is the allocation gate of the navigation hot
// path: per-instance work that creeps back into CreateInstance or Start
// shows up here as a count before it shows up in the benchmark.
func TestTravelSagaAllocCeiling(t *testing.T) {
	e := atmEngine(t, rm.NewInjector(), engine.WithBus(obs.NewBus()))
	allocs := testing.AllocsPerRun(200, func() {
		inst, err := e.CreateInstance("travel", nil, wal.Discard)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("travel did not commit: %v", err)
		}
	})
	t.Logf("%.0f allocs per travel saga", allocs)
	if allocs > travelSagaAllocCeiling {
		t.Fatalf("%.0f allocs per travel saga, ceiling %d", allocs, travelSagaAllocCeiling)
	}
}

// retainedHeap finishes 5,000 travel and Figure 3 instances on one engine
// and keeps them, as an engine and the atm-mem benchmark do, and returns
// the scannable and the live heap bytes after a collection.
func retainedHeap(t *testing.T) (scan, live uint64, n int) {
	t.Helper()
	e := atmEngine(t, rm.NewInjector())
	insts := make([]*engine.Instance, 5000)
	for i := range insts {
		inst, err := e.CreateInstance([]string{"travel", "fig3"}[i%2], nil, wal.Discard)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("instance %d did not finish: %v", i, err)
		}
		insts[i] = inst
	}
	runtime.GC()
	samples := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(samples)
	runtime.KeepAlive(insts)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64(), len(insts)
}

// TestRetainedInstancesAreMostlyNotScanned: finished instances kept for
// their trails are memory the garbage collector mostly need not scan. The
// trail — the largest part of a finished instance — and the activity
// states hold no pointer, so of 5,000 retained travel and Figure 3
// instances at most 45% of the live heap is scannable (87% while trail
// records pointed at their activity, 43% while activity states did, 38%
// since).
func TestRetainedInstancesAreMostlyNotScanned(t *testing.T) {
	scan, live, n := retainedHeap(t)
	t.Logf("scannable %d of %d live heap bytes (%.2f)", scan, live, float64(scan)/float64(live))
	if float64(scan) > 0.45*float64(live) {
		t.Fatalf("%d of %d live heap bytes are scannable with %d instances retained, want <= 45%%", scan, live, n)
	}
}

// Retained bytes per finished travel or Figure 3 instance, live and
// scannable. A finished instance keeps its history — 24-byte trail
// records, activity states, the root output — and releases its containers,
// queue and replay index at RecDone: 5,130 live and 1,916 scannable bytes
// with 40-byte trail records and nothing released, 3,362 and 1,446 with
// them released, and 2,155 and 818 since the trail is kept at its exact
// length and the activity states hold no pointer (32 bytes instead of 88).
const (
	retainedLiveBytesCeiling = 2243
	retainedScanBytesCeiling = 872
)

// TestRetainedBytesPerFinishedInstance bounds what an engine holds per
// finished instance, so navigation state that outlives RecDone or a
// trail record that grows shows up here as bytes before it shows up in
// the benchmark's live heap.
func TestRetainedBytesPerFinishedInstance(t *testing.T) {
	scan, live, n := retainedHeap(t)
	perLive, perScan := live/uint64(n), scan/uint64(n)
	t.Logf("%d live and %d scannable bytes per retained instance", perLive, perScan)
	if perLive > retainedLiveBytesCeiling {
		t.Errorf("%d live bytes per retained instance, ceiling %d", perLive, retainedLiveBytesCeiling)
	}
	if perScan > retainedScanBytesCeiling {
		t.Errorf("%d scannable bytes per retained instance, ceiling %d", perScan, retainedScanBytesCeiling)
	}
}

// TestRecoverAllCopiesNoRecord: demultiplexing a fleet's log by instance
// copies no record. Recovering every instance of the log at once allocates
// what recovering each from its own records allocates, plus bookkeeping per
// instance — less than half a second copy of the records, at 50
// instances and at 200.
func TestRecoverAllCopiesNoRecord(t *testing.T) {
	for _, n := range []int{50, 200} {
		src := atmEngine(t, rm.NewInjector())
		log := &wal.MemLog{}
		for i := 0; i < n; i++ {
			inst, err := src.CreateInstance([]string{"travel", "fig3"}[i%2], nil, log)
			if err == nil {
				err = inst.Start()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		records := log.Records()
		var order []string
		byInst := map[string][]wal.Record{}
		for _, rec := range records {
			if byInst[rec.Instance] == nil {
				order = append(order, rec.Instance)
			}
			byInst[rec.Instance] = append(byInst[rec.Instance], rec)
		}
		discard := func(string) wal.Log { return wal.Discard }
		all, each := atmEngine(t, rm.NewInjector()), atmEngine(t, rm.NewInjector())
		allBytes := allocated(func() {
			if insts, err := engine.RecoverAllFromCheckpoint(all, nil, records, discard); err != nil || len(insts) != n {
				t.Fatalf("recovered %d of %d instances: %v", len(insts), n, err)
			}
		})
		eachBytes := allocated(func() {
			for _, id := range order {
				if _, err := engine.Recover(each, byInst[id], wal.Discard); err != nil {
					t.Fatal(err)
				}
			}
		})
		copyBytes := uint64(len(records)) * uint64(unsafe.Sizeof(wal.Record{}))
		t.Logf("%d instances, %d records: all at once %d bytes, one by one %d, a copy of the records %d", n, len(records), allBytes, eachBytes, copyBytes)
		if allBytes > eachBytes+copyBytes/2 {
			t.Fatalf("recovering %d instances at once allocates %d bytes more than one by one; a copy of their %d records is %d",
				n, allBytes-eachBytes, len(records), copyBytes)
		}
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// snapshotAllocs bounds the allocations of the Snapshot of a finished
// travel saga: the snapshot, its output map (two objects), the activity
// list it is built from and its own activity slice, each sized once.
// Unsized appends and sort.Slice's reflect swapper, with a second sort of
// the already sorted list, made 17.
const snapshotAllocs = 5

// TestSnapshotAllocCeiling: Snapshot is on the verify path of every
// recovered instance, so what it allocates is paid per instance recovered.
func TestSnapshotAllocCeiling(t *testing.T) {
	e := atmEngine(t, rm.NewInjector())
	inst, err := e.CreateInstance("travel", nil, wal.Discard)
	if err == nil {
		err = inst.Start()
	}
	if err != nil || !inst.Finished() {
		t.Fatalf("travel did not commit: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() { _ = inst.Snapshot() })
	t.Logf("%.0f allocs per Snapshot of %d activities", allocs, len(inst.Snapshot().Activities))
	if allocs > snapshotAllocs {
		t.Fatalf("%.0f allocs per Snapshot, ceiling %d", allocs, snapshotAllocs)
	}
}
