package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/rm"
	"repro/internal/wal"
)

// sameBytesCases are the golden cases whose decisions a stateless script
// fixes (AbortAlways or nothing), so any number of instances and any
// recovery of them decide alike: one commit run and one compensated run of
// each process.
var sameBytesCases = []string{"travel-commit", "travel-compensated", "fig3-commit", "fig3-compensated"}

// runToFile navigates one golden case on a fresh engine over a binary
// FileLog and returns the file's path and the finished instance.
func runToFile(t *testing.T, golden string) (string, *engine.Instance) {
	t.Helper()
	process, script := goldenScript(t, golden)
	inj := rm.NewInjector()
	script(inj)
	e := atmEngine(t, inj)
	path := filepath.Join(t.TempDir(), "run.wal")
	log, err := wal.OpenFileLog(path, wal.WithFormat(wal.FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstanceID(process, "inst-1", nil, log)
	if err == nil {
		err = inst.Start()
	}
	if err != nil || !inst.Finished() {
		t.Fatalf("%s did not finish: %v", golden, err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path, inst
}

// fileTree maps every file under root, by its path relative to root, to its
// content.
func fileTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSameRunSameBytes: a record's members are written in the container
// layout's sorted-path order, so a run is a function from its inputs and
// decisions to the bytes of its log — the cheapest whole-system oracle
// there is. Twenty runs of each scripted case write twenty identical
// binary files; twenty runs of a two-shard fleet fed from one goroutine
// write identical segment files shard by shard. The last case reads the
// other direction: a log whose members are in some other order — what
// every build that iterated a map per record wrote — still recovers, from
// every crash point, to the crash-free run's snapshot.
func TestSameRunSameBytes(t *testing.T) {
	const runs = 20
	for _, golden := range sameBytesCases {
		t.Run(golden, func(t *testing.T) {
			var first []byte
			for run := 0; run < runs; run++ {
				path, _ := runToFile(t, golden)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = data
				} else if !bytes.Equal(data, first) {
					t.Fatalf("run %d wrote different bytes than run 0 (%d vs %d bytes)", run, len(data), len(first))
				}
			}
		})
	}

	// Parallel 1 and no admission queue make a shard run its instances in
	// submission order, NoRebalance makes placement a function of the ID,
	// and a fresh engine numbers its instances from inst-1: each shard's log
	// is then determined, whatever the two shards' relative pace. A segment
	// rotates after the barrier batch that fills it and one instance appends
	// at a time, so the rotation points are determined too and the segment
	// files compare one by one.
	t.Run("fleet", func(t *testing.T) {
		var first map[string][]byte
		for run := 0; run < runs; run++ {
			inj := rm.NewInjector()
			inj.AbortAlways("book_car") // every travel compensates, every fig3 commits
			e := atmEngine(t, inj)
			root := t.TempDir()
			fleet, err := engine.NewFleet(e, engine.FleetConfig{
				Shards: 2, Dir: root, Parallel: 1, NoRebalance: true,
				GroupCommit: true, Format: wal.FormatBinary, SegmentMaxRecords: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				process := []string{"travel", "fig3"}[i%2]
				if _, err := fleet.Submit(process, nil, func(inst *engine.Instance, err error) {
					if err != nil {
						t.Errorf("%s: %v", inst.ID(), err)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			fleet.Drain()
			if err := fleet.Close(); err != nil {
				t.Fatal(err)
			}
			tree := fileTree(t, root)
			if run == 0 {
				first = tree
				if len(tree) < 4 {
					t.Fatalf("want both shards to have rotated, got %d files", len(tree))
				}
			} else if !reflect.DeepEqual(tree, first) {
				t.Fatalf("run %d left different segment files than run 0", run)
			}
		}
	})

	t.Run("members in another order", func(t *testing.T) {
		for _, golden := range sameBytesCases {
			path, clean := runToFile(t, golden)
			recs, err := wal.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reordered := false
			for i := range recs {
				// Reversed: for a record of two or more members, not the order
				// the encoder writes. Keys is shared between records, Vals is not.
				v := &recs[i].Values
				v.Keys = slices.Clone(v.Keys)
				slices.Reverse(v.Keys)
				slices.Reverse(v.Vals)
				reordered = reordered || v.Len() > 1
			}
			if !reordered {
				t.Fatalf("%s: no record carries two members", golden)
			}
			for crashAt := 1; crashAt <= len(recs); crashAt++ {
				old := filepath.Join(t.TempDir(), "old.wal")
				log, err := wal.OpenFileLog(old, wal.WithFormat(wal.FormatBinary))
				if err == nil {
					err = wal.AppendAll(log, recs[:crashAt])
				}
				if err == nil {
					err = log.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				_, script := goldenScript(t, golden)
				inj := rm.NewInjector()
				script(inj)
				insts, _, err := engine.RecoverLadder(atmEngine(t, inj), wal.Ladder{Path: old}, nil)
				if err != nil || len(insts) != 1 {
					t.Fatalf("%s after %d records: %d instances, err=%v", golden, crashAt, len(insts), err)
				}
				if got, want := insts[0].Snapshot(), clean.Snapshot(); !got.Equal(want) {
					t.Fatalf("%s after %d records recovers to\n%+v\nwant\n%+v", golden, crashAt, got, want)
				}
			}
		}
	})
}
