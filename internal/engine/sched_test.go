package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers = 3
	s := newScheduler(workers, 0)
	var active, peak atomic.Int64
	var mu sync.Mutex
	bumpPeak := func(n int64) {
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	for i := 0; i < 20; i++ {
		s.Admit()
		s.Go(func() {
			n := active.Add(1)
			bumpPeak(n)
			<-done
			active.Add(-1)
		})
		if i == workers-1 {
			// The pool is saturated: the next Admit must block until a
			// worker frees, which close(done) triggers below.
			go func() {
				close(done)
			}()
		}
	}
	s.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

// A bounded scheduler refuses admission once its queue (workers +
// maxQueue) is full, and admits again when a reservation is returned —
// the two halves of Fleet.Submit's shedding path.
func TestSchedulerTryAdmitRefusesWhenFull(t *testing.T) {
	s := newScheduler(1, 1)
	gate := make(chan struct{})
	for i := 0; i < 2; i++ { // one executing, one queued
		if !s.TryAdmit() {
			t.Fatalf("admission %d refused below the bound", i)
		}
		s.Go(func() { <-gate })
	}
	if s.TryAdmit() {
		t.Fatal("TryAdmit granted past workers + maxQueue")
	}
	close(gate)
	s.Wait()
	for i := 0; i < 2; i++ {
		if !s.TryAdmit() {
			t.Fatalf("admission %d refused on a drained scheduler", i)
		}
	}
	// Full again: a closed stop channel ends AdmitStop's wait.
	stop := make(chan struct{})
	close(stop)
	if s.AdmitStop(stop) {
		t.Fatal("AdmitStop granted past the bound")
	}
	s.Unadmit()
	s.Unadmit()
}
