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
	h := NewHost(1, nil)
	done := make(chan struct{})
	h.Spawn("p", func(p Port) {
		defer close(done)
		for turns.Load() == 0 {
			runtime.Gosched() // until the observer is up
		}
		fn(p, &turns)
	})
	h.Start()
	<-done // Shutdown would unwind a port it finds parked in a Pause
	h.Shutdown()
	stop.Store(true)
	<-observed
}

// TestAdvanceYieldsOncePerQuantum: a port that makes k*yieldEvery Advance
// calls gives the processor away k times, not once per call — whatever the
// modelled cost passed, zero included: in real time a step is a step.
func TestAdvanceYieldsOncePerQuantum(t *testing.T) {
	const quanta = 50
	for _, d := range []time.Duration{0, 100 * time.Nanosecond, time.Hour} {
		var yields int64
		onOneP(t, func(p Port, turns *atomic.Int64) {
			before := turns.Load()
			for i := 0; i < quanta*yieldEvery; i++ {
				p.Advance(d)
			}
			yields = turns.Load() - before
		})
		// One observer turn per yield, give or take what else the scheduler
		// had to run on the one P (a timer or GC worker in place of the
		// observer).
		if yields < quanta-3 || yields > quanta+3 {
			t.Errorf("%d calls of Advance(%v) let the observer run %d times, want %d", quanta*yieldEvery, d, yields, quanta)
		}
	}
}

// TestSpinOnAdvanceCannotStarve: a goroutine that spins on a charged step —
// a test-and-set loop pays Advance per probe — must let the goroutine it
// waits for run even when both share one P. The spin ends within a few
// times yieldEvery turns: well inside the 10 ms the runtime would take to
// preempt a spin that never yielded, by which time the loop below would have
// gone round a million times.
func TestSpinOnAdvanceCannotStarve(t *testing.T) {
	spins := 0
	onOneP(t, func(p Port, turns *atomic.Int64) {
		for from := turns.Load(); turns.Load() == from; spins++ {
			p.Advance(0)
		}
	})
	if limit := 4 * yieldEvery; spins > limit {
		t.Fatalf("the spin went round %d times before the other goroutine ran, want at most %d", spins, limit)
	}
}

// TestHostPauseWaitsAndYields: in real time Pause is a wait. Below the park
// threshold it returns no earlier than asked while the other goroutine on
// the one P keeps running; from the threshold up it parks on the port's
// timer (nothing of the port stays runnable); and neither allocates. A
// nanosecond is over by the time Pause can read the clock, as 1 ms is when
// the OS deschedules the thread for longer than that: the other goroutine
// runs all the same.
func TestHostPauseWaitsAndYields(t *testing.T) {
	onOneP(t, func(p Port, turns *atomic.Int64) {
		hp := p.(*HostPort)
		for _, d := range []time.Duration{time.Nanosecond, 200 * time.Microsecond, parkThreshold} {
			from, start := turns.Load(), time.Now()
			p.Pause(d)
			if el := time.Since(start); el < d {
				t.Errorf("Pause(%v) returned after %v", d, el)
			}
			if turns.Load() == from {
				t.Errorf("Pause(%v) never let the observer run", d)
			}
			if parked := hp.timer != nil; parked != (d >= parkThreshold) {
				t.Errorf("Pause(%v): parked on the timer = %v", d, parked)
			}
			if a := testing.AllocsPerRun(5, func() { p.Pause(d) }); a != 0 {
				t.Errorf("Pause(%v) allocates %v objects", d, a)
			}
		}
	})
}

// TestHostPauseUnwindsOnQuit: a port parked in a long Pause, or polling in a
// loop of short ones, is no obstacle to Shutdown — it unwinds like a blocked
// receive.
func TestHostPauseUnwindsOnQuit(t *testing.T) {
	for _, d := range []time.Duration{time.Hour, 2 * time.Microsecond} {
		h := NewHost(1, nil)
		parked := make(chan struct{})
		returned := false
		h.Spawn("p", func(p Port) {
			close(parked)
			for i := time.Duration(0); i < time.Hour; i += d {
				p.Pause(d)
			}
			returned = true
		})
		h.Start()
		<-parked
		done := make(chan struct{})
		go func() {
			h.Shutdown()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Shutdown waits for a port pausing %v at a time", d)
		}
		if returned {
			t.Fatalf("an hour of %v pauses returned", d)
		}
	}
}
