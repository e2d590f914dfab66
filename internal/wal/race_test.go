package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
)

// TestMemLogConcurrent hammers one MemLog with concurrent appenders and
// readers; run under -race (CI does). Records must never be lost, torn,
// or aliased — Records hands back deep copies, so mutating a returned
// record's Values must not corrupt the log.
func TestMemLogConcurrent(t *testing.T) {
	log := &MemLog{}
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				err := log.Append(Record{
					Type:     RecFinishedActivity,
					Instance: "inst-1",
					Path:     fmt.Sprintf("w%d/a%d", w, i),
					Iter:     i,
					Values:   ValuesOf(map[string]expr.Value{"RC": expr.Int(0)}),
				})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for rdr := 0; rdr < 3; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := log.Records()
				if len(recs) != log.Len() && len(recs) > log.Len() {
					t.Error("Records longer than Len")
					return
				}
				for i := range recs {
					// Mutate the copy: must not affect the log.
					recs[i].Values.Vals[0] = expr.Int(99)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := log.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	recs := log.Records()
	if len(recs) != writers*perWriter {
		t.Fatalf("Records = %d, want %d", len(recs), writers*perWriter)
	}
	for _, r := range recs {
		if v, ok := r.Values.Get("RC"); !ok || v.AsInt() != 0 {
			t.Fatalf("record %s: values aliased or corrupted: %v", r.Path, r.Values)
		}
	}
}

// TestMemLogConcurrentCrashPoint checks that a crash-scripted MemLog
// under concurrent appenders admits exactly CrashAfter records.
func TestMemLogConcurrentCrashPoint(t *testing.T) {
	log := &MemLog{CrashAfter: 100}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = log.Append(Record{Type: RecStartedActivity, Instance: "i"})
			}
		}()
	}
	wg.Wait()
	if got := log.Len(); got != 100 {
		t.Fatalf("Len = %d, want exactly CrashAfter=100", got)
	}
}
