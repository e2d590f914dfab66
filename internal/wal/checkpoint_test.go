package wal

import (
	"os"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
)

// fleetHistory fabricates an interleaved three-instance history: i1
// finishes, i2 is mid-flight with a superseded started record, i3 is
// mid-flight with a pending (half-executed) one.
func fleetHistory() []Record {
	v := func(n int64) Values {
		return ValuesOf(map[string]expr.Value{"RC": expr.Int(n)})
	}
	return []Record{
		{Type: RecCreated, Instance: "i1", Process: "P", Values: v(0)},
		{Type: RecCreated, Instance: "i2", Process: "P", Values: v(0)},
		{Type: RecStartedActivity, Instance: "i1", Path: "A"},
		{Type: RecStartedActivity, Instance: "i2", Path: "A"},
		{Type: RecFinishedActivity, Instance: "i1", Path: "A", Values: v(1)},
		{Type: RecCreated, Instance: "i3", Process: "P", Values: v(0)},
		{Type: RecFinishedActivity, Instance: "i2", Path: "A", Values: v(2)},
		{Type: RecStartedActivity, Instance: "i3", Path: "A"},
		{Type: RecDone, Instance: "i1", Values: v(1)},
		{Type: RecStartedActivity, Instance: "i2", Path: "B"},
	}
}

func TestBuildCheckpointCompactsAndDropsFinished(t *testing.T) {
	cp := BuildCheckpoint(nil, fleetHistory(), 3)
	if cp.Seq != 1 || cp.Cover != 3 {
		t.Fatalf("seq/cover: %+v", cp)
	}
	if len(cp.Done) != 1 || cp.Done[0] != "i1" {
		t.Fatalf("done: %v", cp.Done)
	}
	for _, r := range cp.Records {
		if r.Instance == "i1" {
			t.Fatalf("finished instance kept: %+v", r)
		}
		// Compact semantics: i2's finished A supersedes its started A.
		if r.Instance == "i2" && r.Type == RecStartedActivity && r.Path == "A" {
			t.Fatalf("superseded started record kept: %+v", r)
		}
	}
	// i3's half-executed witness must survive.
	found := false
	for _, r := range cp.Records {
		if r.Instance == "i3" && r.Type == RecStartedActivity && r.Path == "A" {
			found = true
		}
	}
	if !found {
		t.Fatal("pending started witness lost")
	}
	// Chaining: a second checkpoint that finishes i2 moves it to Done and
	// keeps i1 there.
	more := []Record{
		{Type: RecFinishedActivity, Instance: "i2", Path: "B",
			Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
		{Type: RecDone, Instance: "i2",
			Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
	}
	cp2 := BuildCheckpoint(cp, more, 5)
	if cp2.Seq != 2 || cp2.Cover != 5 {
		t.Fatalf("cp2: %+v", cp2)
	}
	if strings.Join(cp2.Done, ",") != "i1,i2" {
		t.Fatalf("cp2 done: %v", cp2.Done)
	}
	for _, r := range cp2.Records {
		if r.Instance != "i3" {
			t.Fatalf("cp2 should hold only i3: %+v", r)
		}
	}
}

func TestCheckpointWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp := BuildCheckpoint(nil, fleetHistory(), 7)
	path, err := WriteCheckpoint(dir, cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != cp.Seq || got.Cover != cp.Cover ||
		strings.Join(got.Done, ",") != strings.Join(cp.Done, ",") ||
		len(got.Records) != len(cp.Records) {
		t.Fatalf("round trip: %+v vs %+v", got, cp)
	}
	for i := range cp.Records {
		if !recordsEqual(cp.Records[i], got.Records[i]) {
			t.Fatalf("record %d: %+v vs %+v", i, cp.Records[i], got.Records[i])
		}
	}
}

func TestLoadCheckpointFallbackLadder(t *testing.T) {
	dir := t.TempDir()
	if cp, err := LoadCheckpoint(dir); cp != nil || err != nil {
		t.Fatalf("empty dir: cp=%v err=%v", cp, err)
	}
	cp1 := BuildCheckpoint(nil, fleetHistory()[:6], 1)
	if _, err := WriteCheckpoint(dir, cp1); err != nil {
		t.Fatal(err)
	}
	cp2 := BuildCheckpoint(cp1, fleetHistory()[6:], 2)
	path2, err := WriteCheckpoint(dir, cp2)
	if err != nil {
		t.Fatal(err)
	}
	// Intact: newest wins.
	got, err := LoadCheckpoint(dir)
	if err != nil || got == nil || got.Seq != 2 {
		t.Fatalf("newest: %+v err=%v", got, err)
	}
	// Torn newest (crash mid-write simulated post hoc, or bit rot): fall
	// back to the previous checkpoint.
	data, _ := os.ReadFile(path2)
	if err := os.WriteFile(path2, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	before := fallbackCount()
	got, err = LoadCheckpoint(dir)
	if err != nil || got == nil || got.Seq != 1 {
		t.Fatalf("fallback: %+v err=%v", got, err)
	}
	if fallbackCount() != before+1 {
		t.Fatal("fallback not counted")
	}
	// Both damaged: full replay (nil checkpoint), two more fallbacks.
	if err := os.WriteFile(ckptPath(dir, 1), []byte("garbage\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir)
	if got != nil || err != nil {
		t.Fatalf("ladder bottom: cp=%v err=%v", got, err)
	}
	// A leftover temp file from a crash mid-WriteCheckpoint is ignored.
	if err := os.WriteFile(ckptPath(dir, 9)+".tmp", []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	if infos, err := ListCheckpoints(dir); err != nil || len(infos) != 2 {
		t.Fatalf("tmp file visible: %v err=%v", infos, err)
	}
}

func TestReadCheckpointRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	cp := BuildCheckpoint(nil, fleetHistory(), 1)
	path, err := WriteCheckpoint(dir, cp)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := os.ReadFile(path)

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), clean...)), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	corrupt("empty file", func(b []byte) []byte { return nil })
	corrupt("flipped header bit", func(b []byte) []byte { b[12] ^= 0x40; return b })
	corrupt("flipped record bit", func(b []byte) []byte { b[len(b)-10] ^= 0x40; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-20] })
	corrupt("surplus line", func(b []byte) []byte { return append(b, []byte("tail garbage\n")...) })
	corrupt("future version", func(b []byte) []byte {
		// Re-frame a header with version 99: easiest is to rewrite the file.
		return []byte(string(frameLine([]byte(`{"v":99,"seq":1,"cover":1,"n":0}`))) + "\n")
	})
}

// fallbackCount reads the global checkpoint-fallback counter.
func fallbackCount() int64 {
	return obs.Default.Counter("recover.checkpoint_fallbacks").Value()
}
