package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// travelSagaAllocCeiling bounds the allocations of creating and running
// one FMTM-compiled travel saga to its commit on wal.Discard. The engine
// that rebuilt adjacency maps, map-backed containers and a []Event trail
// for every instance made 126; slot-vector containers and plans brought it
// to 52, and records that carry the slot vector instead of a Snapshot map
// to 46. The gate leaves room for a toolchain to move that, not for a map
// per record to come back.
const travelSagaAllocCeiling = 50

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
