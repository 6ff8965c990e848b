package port

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// onOneP runs fn as the only port of a Host on a single P, next to an
// observer goroutine that does nothing but count its turns on that P and
// yield: the port can lose the processor only by yielding it (or by being
// preempted, 10 ms in), and every yield is one observer turn. fn gets the
// turn counter.
func onOneP(t *testing.T, fn func(p Port, turns *atomic.Int64)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var turns atomic.Int64
	var stop atomic.Bool
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for !stop.Load() {
			turns.Add(1)
			runtime.Gosched()
		}
	}()
	h := NewHost(1, Bounded, nil)
	h.Spawn("p", func(p Port) {
		for turns.Load() == 0 {
			runtime.Gosched() // until the observer is up
		}
		fn(p, &turns)
	})
	h.Start()
	h.Shutdown()
	stop.Store(true)
	<-observed
}

// TestAdvanceYieldsOncePerQuantum: a port that advances through k quanta of
// modelled time in small steps gives the processor away k times, not once
// per step.
func TestAdvanceYieldsOncePerQuantum(t *testing.T) {
	const quanta, stepsPerQuantum = 50, 16
	var yields int64
	onOneP(t, func(p Port, turns *atomic.Int64) {
		before := turns.Load()
		for i := 0; i < quanta*stepsPerQuantum; i++ {
			p.Advance(yieldQuantum / stepsPerQuantum)
		}
		yields = turns.Load() - before
	})
	// One observer turn per yield, give or take what else the scheduler had
	// to run on the one P (a timer or GC worker in place of the observer).
	if yields < quanta-3 || yields > quanta+3 {
		t.Fatalf("%d steps through %d quanta let the observer run %d times, want %d", quanta*stepsPerQuantum, quanta, yields, quanta)
	}
}

// TestSpinOnAdvanceCannotStarve: a goroutine that waits by spinning on
// Advance — the TAS loops, contention-manager back-off — must let the
// goroutine it waits for run even when both share one P. The spin ends
// after about one quantum's worth of turns: well inside the 10 ms the
// runtime would take to preempt a spin that never yielded, by which time
// the loop below would have gone round a million times.
func TestSpinOnAdvanceCannotStarve(t *testing.T) {
	const step = 100 * time.Nanosecond
	spins := 0
	onOneP(t, func(p Port, turns *atomic.Int64) {
		for from := turns.Load(); turns.Load() == from; spins++ {
			p.Advance(step)
		}
	})
	if limit := 4 * int(yieldQuantum/step); spins > limit {
		t.Fatalf("the spin went round %d times before the other goroutine ran, want at most %d", spins, limit)
	}
}
