package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestBusDeliversInOrder(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(16)
	defer b.Unsubscribe(sub)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: EvActivityFinished, N: int64(i)})
	}
	for i := 0; i < 10; i++ {
		ev := <-sub.Events()
		if ev.N != int64(i) {
			t.Fatalf("event %d: got N=%d", i, ev.N)
		}
		if ev.At == 0 {
			t.Fatalf("event %d: At not stamped", i)
		}
	}
	if got := b.Published(); got != 10 {
		t.Fatalf("published = %d, want 10", got)
	}
	if got := b.Dropped(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
}

func TestBusNeverBlocksAndCountsDrops(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(4)
	defer b.Unsubscribe(sub)
	// Nobody drains: the 5th..20th publishes must drop, not block. If
	// Publish blocked this test would deadlock (single goroutine).
	for i := 0; i < 20; i++ {
		b.Publish(Event{Kind: EvWalFlush})
	}
	if got := sub.Drops(); got != 16 {
		t.Fatalf("subscriber drops = %d, want 16", got)
	}
	if got := b.Dropped(); got != 16 {
		t.Fatalf("bus drops = %d, want 16", got)
	}
}

func TestBusIdleFastPathSkipsStamping(t *testing.T) {
	b := NewBus()
	b.Publish(Event{Kind: EvWalFsync})
	if got := b.Published(); got != 0 {
		t.Fatalf("published with no attachments = %d, want 0", got)
	}
}

func TestBusSynchronousTapSeesEverything(t *testing.T) {
	b := NewBus()
	var got []string
	detach := b.Attach(func(ev Event) { got = append(got, ev.Kind) })
	b.Publish(Event{Kind: EvInstanceCreated})
	b.Publish(Event{Kind: EvInstanceFinished})
	detach()
	detach() // idempotent
	b.Publish(Event{Kind: EvInstanceFailed})
	want := []string{EvInstanceCreated, EvInstanceFinished}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tap saw %v, want %v", got, want)
	}
}

func TestBusUnsubscribeClosesChannel(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1)
	b.Publish(Event{Kind: EvShardDone})
	b.Unsubscribe(sub)
	b.Unsubscribe(sub) // idempotent
	var kinds []string
	for ev := range sub.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 1 || kinds[0] != EvShardDone {
		t.Fatalf("drained %v", kinds)
	}
	if b.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after unsubscribe", b.Subscribers())
	}
}

// TestBusSubscriberChurnRace hammers subscribe/unsubscribe from many
// goroutines while others publish a fleet's worth of events. It exists
// to run under -race (the CI test job runs go test -race ./...): any
// locking mistake in Bus shows up as a race report or a send-on-closed
// panic here.
func TestBusSubscriberChurnRace(t *testing.T) {
	b := NewBus()
	const publishers, churners, events = 4, 8, 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				b.Publish(Event{Kind: EvActivityFinished, Instance: fmt.Sprintf("inst-%d", p), N: int64(i)})
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sub := b.Subscribe(8)
				// Drain a little, then leave; the publisher must drop,
				// never block or panic.
				for j := 0; j < 4; j++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				detach := b.Attach(func(Event) {})
				detach()
				b.Unsubscribe(sub)
			}
		}()
	}
	wg.Wait()
	if b.Subscribers() != 0 {
		t.Fatalf("subscribers leaked: %d", b.Subscribers())
	}
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Record(Event{Kind: EvActivityFinished, N: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Len() != 3 {
		t.Fatalf("retained %d events", len(evs))
	}
	for i, want := range []int64{3, 4, 5} {
		if evs[i].N != want {
			t.Fatalf("event %d: N=%d, want %d", i, evs[i].N, want)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestRecorderDumpJSONL(t *testing.T) {
	r := NewRecorder(8)
	b := NewBus()
	detach := b.Attach(r.Record)
	defer detach()
	b.Publish(Event{Kind: EvInstanceCreated, Instance: "inst-1"})
	b.Publish(Event{Kind: EvInstanceFailed, Instance: "inst-1", Cause: "boom"})
	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var header struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Schema != FlightSchema {
		t.Fatalf("first line %q is not the %s schema header (%v)", sc.Text(), FlightSchema, err)
	}
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("dumped %d event lines, want 2", len(lines))
	}
	if lines[0].Kind != EvInstanceCreated || lines[1].Kind != EvInstanceFailed {
		t.Fatalf("order: %s, %s", lines[0].Kind, lines[1].Kind)
	}
	if lines[1].Cause != "boom" {
		t.Fatalf("cause lost: %+v", lines[1])
	}
	if lines[0].At == 0 || lines[1].At < lines[0].At {
		t.Fatalf("timestamps not monotone: %d, %d", lines[0].At, lines[1].At)
	}
}

func TestEventJSONFieldNames(t *testing.T) {
	ev := Event{Kind: EvWalFlush, Instance: "inst-1", Path: "A", Iter: 2,
		Program: "p", Cause: "c", RC: 4, N: 8, DurNs: 16, At: 32}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"kind"`, `"inst"`, `"path"`, `"iter"`, `"prog"`, `"cause"`, `"rc"`, `"n"`, `"dur_ns"`, `"at_ns"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("marshal missing %s: %s", key, b)
		}
	}
	// Zero-valued optional fields stay off the wire.
	b, _ = json.Marshal(Event{Kind: EvWalFsync, At: 1})
	if got := string(b); got != `{"kind":"wal.fsync","at_ns":1}` {
		t.Fatalf("sparse marshal: %s", got)
	}
}
