package rm

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(clk *fakeClock, trace *[]string) *Breaker {
	return newBreaker(BreakerConfig{
		Window: 4, FailureRate: 0.5, MinSamples: 4, Cooldown: time.Second,
		Now: clk.now,
		OnTransition: func(from, to BreakerState) {
			*trace = append(*trace, from.String()+">"+to.String())
		},
	})
}

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var trace []string
	b := testBreaker(clk, &trace)

	// Healthy flow stays closed.
	for i := 0; i < 6; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow: %v", err)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}

	// Two failures in a window of four (rate 0.5) trip it open.
	b.Record(true)
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Allow = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe allowed (err=%v)", err)
	}

	// Probe fails: reopen, cooldown restarts.
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	clk.advance(time.Second / 2)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker admitted before cooldown")
	}

	// Second probe succeeds: reclose with a clean window (one subsequent
	// failure must not re-trip).
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", b.State())
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("single failure after reclose tripped a supposedly clean window")
	}

	want := []string{
		"closed>open",
		"open>half-open",
		"half-open>open",
		"open>half-open",
		"half-open>closed",
	}
	if len(trace) != len(want) {
		t.Fatalf("transitions = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s (all: %v)", i, trace[i], want[i], trace)
		}
	}
}

func TestBreakerMinSamples(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Window: 10, FailureRate: 0.5, MinSamples: 5, Now: clk.now})
	// Early failures below MinSamples never trip, even at 100% rate.
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below MinSamples")
	}
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatal("breaker failed to trip at MinSamples with 100% failures")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := newBreaker(BreakerConfig{})
	if err := b.Allow(); err != nil {
		t.Fatalf("zero-config breaker refused: %v", err)
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v", got)
	}
	if s := BreakerOpen.String(); s != "open" {
		t.Fatalf("String = %q", s)
	}
}
