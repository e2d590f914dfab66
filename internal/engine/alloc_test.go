package engine_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/rm"
	"repro/internal/wal"
)

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
