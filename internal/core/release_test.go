package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
)

// TestReleaseBurstAfterPoolDrain: every GC empties the message pools, so the
// release burst that follows one draws each relLocks fresh. A 1,024-object
// read scan over 24 DTM nodes must still draft its burst with at most two
// allocations per message — the message and its key slice, sized once from
// the node's key count — not one per doubling of the slice.
func TestReleaseBurstAfterPoolDrain(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	s := testSystem(t, func(c *Config) { c.TotalCores = 48 })
	const objects = 1024
	base := s.Mem.Alloc(objects, 0)
	var before, after runtime.MemStats
	measuring, msgs := false, 0
	releaseSent = func(int, *relLocks) {
		if measuring {
			// Every draft is built before the first message leaves.
			runtime.ReadMemStats(&after)
			measuring = false
		}
		msgs++
	}
	t.Cleanup(func() { releaseSent = nil })
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		for round := 0; round < 2; round++ { // the first grows the runtime's own scratch
			rt.RunKind(ReadOnly, func(tx *Tx) {
				for i := 0; i < objects; i++ {
					tx.Read(base + mem.Addr(i))
				}
				if round == 1 {
					runtime.GC()
					runtime.GC() // the first GC moves pooled objects to the victim cache, the second frees them
					// A pool rebuilds its per-P cache at its first use after a
					// GC, once per cycle and not per message: pay that here.
					putRelLocks(getRelLocks())
					msgs = 0
					runtime.ReadMemStats(&before)
					measuring = true
				}
			})
		}
	})
	s.RunToCompletion()
	if msgs != len(s.nodes) {
		t.Fatalf("the scan's release burst sent %d messages, want one per DTM node (%d)", msgs, len(s.nodes))
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("release burst after a pool drain: %d allocations for %d messages", allocs, msgs)
	if allocs > uint64(2*msgs) {
		t.Errorf("drafting %d release messages allocated %d objects, want <= 2 per message", msgs, allocs)
	}
}
