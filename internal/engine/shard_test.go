package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

func TestShardForDeterministicInRange(t *testing.T) {
	for shards := 1; shards <= 9; shards++ {
		for i := 0; i < 1000; i++ {
			id := fmt.Sprintf("inst-%d", i)
			got := ShardFor(id, shards)
			if got < 0 || got >= shards {
				t.Fatalf("ShardFor(%q, %d) = %d, out of range", id, shards, got)
			}
			if again := ShardFor(id, shards); again != got {
				t.Fatalf("ShardFor(%q, %d) unstable: %d then %d", id, shards, got, again)
			}
		}
	}
}

// TestShardPlacementMinimalMovement is the consistent-hash property the
// fleet's resharding story rests on: growing the shard count from N to
// N+1 moves only ~1/(N+1) of the instances, and every instance that
// moves lands on the new shard — none shuffle between existing shards.
func TestShardPlacementMinimalMovement(t *testing.T) {
	const keys = 20000
	for _, n := range []int{1, 2, 3, 4, 8} {
		moved := 0
		for i := 0; i < keys; i++ {
			id := fmt.Sprintf("inst-%d", i)
			before, after := ShardFor(id, n), ShardFor(id, n+1)
			if before == after {
				continue
			}
			if after != n {
				t.Fatalf("key %q moved %d -> %d growing %d -> %d shards; moves may only target the new shard %d",
					id, before, after, n, n+1, n)
			}
			moved++
		}
		frac, ideal := float64(moved)/keys, 1/float64(n+1)
		if frac < ideal/2 || frac > ideal*2 {
			t.Fatalf("%d -> %d shards moved %.4f of keys, want ~%.4f", n, n+1, frac, ideal)
		}
	}
}

func TestShardDirNaming(t *testing.T) {
	root := t.TempDir()
	for _, i := range []int{0, 3, 11} {
		if err := os.MkdirAll(filepath.Join(root, ShardDirName(i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Non-shard entries are ignored — including names that merely start
	// like a shard: an operator's backup copy recovered as a second shard
	// would duplicate every instance in it.
	for _, stray := range []string{"ckpt", "shard-00.bak", "shard-1x", "shard-007"} {
		if err := os.MkdirAll(filepath.Join(root, stray), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := ShardDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "shard-00"),
		filepath.Join(root, "shard-03"),
		filepath.Join(root, "shard-11"),
	}
	if len(dirs) != len(want) {
		t.Fatalf("ShardDirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("ShardDirs[%d] = %q, want %q", i, dirs[i], want[i])
		}
	}
}

func TestFleetRunFinishesAndRecovers(t *testing.T) {
	const n = 20
	root := t.TempDir()
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e, FleetConfig{
		Shards: 4, Dir: root, Parallel: 2, MaxQueue: 4,
		GroupCommit: true, SegmentMaxRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run("Chain", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != n || res.Finished != n || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	st := f.Stats()
	var placed int64
	for _, sh := range st.Shards {
		placed += sh.Placed
		if sh.Queued != 0 || sh.Active != 0 {
			t.Fatalf("shard %d not drained: %+v", sh.ID, sh)
		}
	}
	if placed != n {
		t.Fatalf("placed %d, want %d", placed, n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Bursty submission may overflow-rebalance a hash-skewed shard, but
	// nothing may shed with blocking admission.
	if st.Shed != 0 {
		t.Fatalf("unexpected shed: %+v", st)
	}

	e2 := newTestEngine(t)
	if err := e2.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	insts, err := RecoverFleet(e2, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != n {
		t.Fatalf("recovered %d instances, want %d", len(insts), n)
	}
	for _, inst := range insts {
		if !inst.Finished() {
			t.Fatalf("recovered %s not finished", inst.ID())
		}
	}
}

// TestRecoverFleetMatchesSingleLogRecovery pins the demultiplexing
// contract: recovering a shard-directory layout reproduces, instance by
// instance, exactly what single-shared-log recovery produces for the
// same fleet workload.
func TestRecoverFleetMatchesSingleLogRecovery(t *testing.T) {
	const n = 24
	trailsOf := func(insts []*Instance) map[string][]string {
		m := make(map[string][]string, len(insts))
		for _, inst := range insts {
			m[inst.ID()] = trailStrings(inst)
		}
		return m
	}

	// Reference: one shared group-commit segmented log for the fleet.
	dirA := t.TempDir()
	e1 := newTestEngine(t)
	if err := e1.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	slog, err := wal.OpenSegmentedLog(dirA, wal.SegmentMaxRecords(16))
	if err != nil {
		t.Fatal(err)
	}
	g := wal.NewGroupCommitSegmented(slog)
	if _, err := e1.RunFleet(FleetOptions{Process: "Chain", N: n, Parallel: 4, Log: g}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t)
	if err := e2.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	single, _, err := RecoverLadder(e2, wal.Ladder{Path: dirA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := trailsOf(single)

	// Same workload through a 4-shard fleet, recovered from shard-NN/.
	dirB := t.TempDir()
	e3 := newTestEngine(t)
	if err := e3.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e3, FleetConfig{
		Shards: 4, Dir: dirB, Parallel: 4, MaxQueue: 8,
		GroupCommit: true, SegmentMaxRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run("Chain", n, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e4 := newTestEngine(t)
	if err := e4.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	sharded, err := RecoverFleet(e4, dirB, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := trailsOf(sharded)

	if len(got) != len(want) {
		t.Fatalf("sharded recovery found %d instances, single-log %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("instance %s missing from sharded recovery", id)
		}
		if len(g) != len(w) {
			t.Fatalf("instance %s trail length %d != %d", id, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("instance %s trail[%d] = %q, want %q", id, i, g[i], w[i])
			}
		}
	}
}

// TestFleetPlaceRebalance drives the placement policy directly: a hot
// home shard spills to a strictly cooler peer, a full home overflows to
// any admitting peer, and a saturated fleet sheds.
func TestFleetPlaceRebalance(t *testing.T) {
	e := newTestEngine(t)
	f, err := NewFleet(e, FleetConfig{Shards: 2, Parallel: 1, MaxQueue: 1, HotQueue: 1, Shed: true})
	if err != nil {
		t.Fatal(err)
	}
	// An id whose consistent-hash home is shard 0.
	home0 := ""
	for i := 0; ; i++ {
		id := fmt.Sprintf("k-%d", i)
		if ShardFor(id, 2) == 0 {
			home0 = id
			break
		}
	}

	// Cool home: placement follows the hash.
	sh, err := f.place(home0)
	if err != nil || sh.ID != 0 {
		t.Fatalf("place on cool home = shard %v, err %v", sh, err)
	}
	sh.sched.Unadmit()

	// Hot home, cooler peer: proactive spill to shard 1.
	f.shards[0].inflight.Store(1)
	sh, err = f.place(home0)
	if err != nil || sh.ID != 1 {
		t.Fatalf("place on hot home = shard %v, err %v; want spill to 1", sh, err)
	}
	sh.sched.Unadmit()
	if f.Stats().Rebalanced != 1 {
		t.Fatalf("rebalanced = %d, want 1", f.Stats().Rebalanced)
	}

	// Hot home but peer no cooler: stay home while the queue admits.
	f.shards[1].inflight.Store(1)
	sh, err = f.place(home0)
	if err != nil || sh.ID != 0 {
		t.Fatalf("place with equal load = shard %v, err %v; want home 0", sh, err)
	}
	sh.sched.Unadmit()

	// Saturated fleet: fill both shards' admission slots, then shed.
	for i := 0; i < 2; i++ { // Parallel + MaxQueue slots per shard
		f.shards[0].sched.Admit()
		f.shards[1].sched.Admit()
	}
	if _, err := f.place(home0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("place on saturated fleet err = %v, want ErrOverloaded", err)
	}
	if f.Stats().Shed != 1 {
		t.Fatalf("shed = %d, want 1", f.Stats().Shed)
	}
}

// TestFleetSubmitShedLeavesNoRecords mirrors the RunFleet guarantee: a
// shed submission never creates an instance, so it leaves no WAL
// records and no engine ID hole visible to recovery.
func TestFleetSubmitShedLeavesNoRecords(t *testing.T) {
	root := t.TempDir()
	e := newTestEngine(t)
	block := make(chan struct{})
	if err := e.RegisterProgram("hold", ProgramFunc(func(inv *Invocation) error {
		<-block
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(chainProcess("Hold", "hold", "ok", "ok")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e, FleetConfig{Shards: 2, Dir: root, Parallel: 1, Shed: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two submissions occupy both shards' single workers (rebalance
	// guarantees one per shard); the third must shed.
	for i := 0; i < 2; i++ {
		if _, err := f.Submit("Hold", nil, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := f.Submit("Hold", nil, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full fleet err = %v, want ErrOverloaded", err)
	}
	close(block)
	f.Drain()
	st := f.Stats()
	if st.Shed != 1 || st.Shards[0].Placed+st.Shards[1].Placed != 2 {
		t.Fatalf("stats = %+v, want 2 placed, 1 shed", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t)
	if err := e2.RegisterProgram("hold", ProgramFunc(func(inv *Invocation) error {
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e2.RegisterProcess(chainProcess("Hold", "hold", "ok", "ok")); err != nil {
		t.Fatal(err)
	}
	insts, err := RecoverFleet(e2, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("recovered %d instances, want exactly the 2 admitted", len(insts))
	}
}
