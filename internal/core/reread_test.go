package core

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// TestVisibleReReadAbortsAfterRevocation: the read set keeps no copy of what
// a visible read's lock pins, so a re-read reads shared memory again, and
// only the status check after it keeps the attempt opaque. A scan locks an
// element ahead of its run; a writer that beats it under FairCM revokes that
// lock and writes the element back; the scan's next read of the element must
// abort the attempt, revoked, and never return the writer's words. The retry
// reads them.
func TestVisibleReReadAbortsAfterRevocation(t *testing.T) {
	const n, was, now = 64, 7, 99
	ahead, missed := firstBatch(t, nil, n)
	var (
		scanned, written bool
		attempts         int
		reReads          []int    // attempts whose re-read ran after the write-back
		seen             []uint64 // the re-read's value, by attempt
	)
	var a TArray[uint64]
	_, st := runRanks(t, BackendSim, nil, func(s *System) func(rt *Runtime) {
		a = NewTArray(s, Uint64Codec(), n, was)
		app := s.AppCores()
		slices.Sort(app)
		writer, scanner := app[0], app[1] // FairCM breaks the tie of two fresh cores by core ID
		return func(rt *Runtime) {
			switch rt.Core() {
			case scanner:
				rt.Run(func(tx *Tx) {
					attempts++
					for i := range missed + 1 {
						a.Get(tx, i)
					}
					scanned = true
					for !written {
						pauseServing(rt)
					}
					reReads = append(reReads, attempts)
					seen = append(seen, a.Get(tx, ahead))
				})
			case writer:
				for !scanned {
					pauseServing(rt)
				}
				rt.Run(func(tx *Tx) { a.Set(tx, ahead, now) })
				written = true
			}
		}
	})
	if !slices.Equal(reReads, []int{1, 2}) {
		t.Fatalf("re-reads after the write-back in attempts %v, want 1 and 2: not the case under test", reReads)
	}
	if !slices.Equal(seen, []uint64{now}) {
		t.Errorf("the re-reads returned %v, want only the retry's %d: the revoked attempt returned the writer's words", seen, now)
	}
	if st.AbortReasons[trace.ReasonRevoked] != 1 {
		t.Errorf("%d revoked aborts, want 1 (aborts by reason %v)", st.AbortReasons[trace.ReasonRevoked], st.AbortReasons)
	}
}

// TestTL2ReReadKeepsFirstValue: under TL2 no lock pins what a transaction
// read, so a re-read returns the first-read value, not the words a later
// commit wrote, and a read-only transaction so commits at its snapshot.
func TestTL2ReReadKeepsFirstValue(t *testing.T) {
	const was, now = 7, 99
	s := tl2System(t, nil)
	x := s.Mem.Alloc(1, 0)
	s.Mem.WriteRaw(x, was)
	var (
		read, written bool
		attempts      int
		first, again  uint64
	)
	app := s.AppCores()
	slices.Sort(app)
	s.SpawnWorkers(func(rt *Runtime) {
		switch rt.Core() {
		case app[0]:
			attempts = rt.RunKind(ReadOnly, func(tx *Tx) {
				first = tx.Read(x)
				read = true
				for !written {
					pauseServing(rt)
				}
				again = tx.Read(x)
			})
		case app[1]:
			for !read {
				pauseServing(rt)
			}
			rt.Run(func(tx *Tx) { tx.Write(x, now) })
			written = true
		}
	})
	s.RunToCompletion()
	if got := s.Mem.ReadRaw(x); got != now {
		t.Fatalf("x = %d after the run, want the writer's %d: not the case under test", got, now)
	}
	if first != was || again != was || attempts != 1 {
		t.Errorf("read %d then %d in %d attempts, want %d twice in one", first, again, attempts, was)
	}
}
