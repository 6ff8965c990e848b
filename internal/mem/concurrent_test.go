package mem

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrency tests of the paged storage: what each exported call promises
// about other calls on the same pages, now that no memory-wide mutex makes
// the promise trivially true. All of them are meant to run under -race (CI
// does); every goroutine charges its accesses to a core of its own, as the
// per-core counters require.

// boundary returns the first address of region 0's page n.
func boundary(n int) Addr { return Addr(n) << pageShift }

// race runs the writers to completion while the readers loop, and stops the
// readers once the last writer is done. Goroutine i gets core i.
func race(writers, readers []func(core int)) {
	var stop atomic.Bool
	var ww, rw sync.WaitGroup
	for i, r := range readers {
		rw.Add(1)
		go func(core int, r func(int)) {
			defer rw.Done()
			for !stop.Load() {
				r(core)
			}
		}(len(writers)+i, r)
	}
	for i, w := range writers {
		ww.Add(1)
		go func(core int, w func(int)) {
			defer ww.Done()
			w(core)
		}(i, w)
	}
	ww.Wait()
	stop.Store(true)
	rw.Wait()
}

// TestWriteBatchIndivisibleAcrossPages: four words astride a page boundary,
// x0 x1 | y0 y1. One writer moves units between x0 and y0, another between
// x1 and y1, each move one WriteBatch over both pages; readers take all
// four words in one ReadBatchTo. x0+y0 and x1+y1 never change, so a reader
// that sees either sum broken saw half a WriteBatch.
func TestWriteBatchIndivisibleAcrossPages(t *testing.T) {
	_, m := newTestMem()
	const total = 1 << 20
	base := boundary(3) - 2
	for i := 0; i < 4; i++ {
		m.WriteRaw(base+Addr(i), total/2)
	}
	mover := func(x, y Addr) func(int) {
		return func(core int) {
			vx, vy := uint64(total/2), uint64(total/2)
			for i := 0; i < 20000; i++ {
				vx, vy = vx-1, vy+1
				m.WriteBatch(benchCtx{}, core, []Addr{y, x}, []uint64{vy, vx})
			}
		}
	}
	reader := func(core int) {
		var w [4]uint64
		m.ReadBatchTo(benchCtx{}, core, base, w[:])
		if w[0]+w[2] != total || w[1]+w[3] != total {
			t.Errorf("torn multi-page read: %v", w)
		}
	}
	race([]func(int){mover(base, base+2), mover(base+1, base+3)}, []func(int){reader, reader})
}

// TestReadVersionedNeverTornUnderPublish: a committer runs the TL2 persist
// step — LockVersions, WriteBatch, PublishVersions — stamping the object's
// words with the version it is about to publish. A ReadVersionedTo that
// comes back unmarked must hold exactly the words of the version it
// reports; with the stripe key on the object's page, on another page, and
// with the object itself astride two pages.
func TestReadVersionedNeverTornUnderPublish(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, key Addr
	}{
		{"key on the object's page", boundary(5) + 8, boundary(5) + 8},
		{"key on another page", boundary(9) + 8, boundary(7)},
		{"object astride two pages", boundary(12) - 1, boundary(12) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m := newTestMem()
			addrs, keys := []Addr{tc.base, tc.base + 1}, []Addr{tc.key}
			committer := func(core int) {
				for v := uint64(1); v <= 20000; v++ {
					m.LockVersions(benchCtx{}, core, keys)
					m.WriteBatch(benchCtx{}, core, addrs, []uint64{v, v})
					m.PublishVersions(benchCtx{}, core, keys, v)
				}
			}
			reader := func(core int) {
				var w [2]uint64
				_, ver, locked := m.ReadVersionedTo(benchCtx{}, core, tc.base, tc.key, w[:])
				if !locked && (w[0] != ver || w[1] != ver) {
					t.Errorf("unmarked read of version %d holds words %v", ver, w)
				}
			}
			race([]func(int){committer}, []func(int){reader, reader})
		})
	}
}

// TestVersionTableFootprint: the version table of 65,536 written stripes —
// live-readmostly-tl2's universe — costs 8 bytes and a bit per stripe, not
// a map entry: at most 0.6 MB of live heap, and nothing more however often
// the stripes are republished.
func TestVersionTableFootprint(t *testing.T) {
	_, m := newTestMem()
	const stripes = 1 << 16
	base := m.Alloc(stripes, 0)
	for i := 0; i < stripes; i++ {
		m.WriteRaw(base+Addr(i), 1)
	}
	keys := make([]Addr, 2)
	publishAll := func() {
		for i := 0; i < stripes; i += 2 {
			keys[0], keys[1] = base+Addr(i), base+Addr(i+1)
			m.LockVersions(benchCtx{}, 0, keys)
			m.PublishVersions(benchCtx{}, 0, keys, uint64(i)+1)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	publishAll()
	grew := float64(heap()-before) / (1 << 20)
	t.Logf("version table of %d stripes: %.2f MB", stripes, grew)
	if grew > 0.6 {
		t.Errorf("version table of %d stripes costs %.2f MB of live heap, budget 0.6", stripes, grew)
	}
	if n := testing.AllocsPerRun(2, publishAll); n != 0 {
		t.Errorf("republishing every stripe allocates %v objects, want 0", n)
	}
	runtime.KeepAlive(m)
}

// TestDirectoryInstallRace: many goroutines make the first write to the
// same untouched page at once, racing to create the directory levels above
// it and the page's words. One page wins — every goroutine finds the same
// one — and no write is lost. Each round uses a page under directory levels
// no earlier round created.
func TestDirectoryInstallRace(t *testing.T) {
	_, m := newTestMem()
	const writers = 8
	for round := 1; round <= 64; round++ {
		first := Addr(round) << (pageShift + leafBits) // under a fresh leaf
		if round%4 == 0 {
			first <<= 2 * dirBits // and two fresh levels above it
		}
		var start, done sync.WaitGroup
		var pages [writers]*page
		start.Add(1)
		for w := 0; w < writers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				start.Wait()
				m.WriteRaw(first+Addr(w), uint64(w)+1)
				pages[w] = m.pageOf(first)
			}(w)
		}
		start.Done()
		done.Wait()
		for w := 0; w < writers; w++ {
			if got := m.ReadRaw(first + Addr(w)); got != uint64(w)+1 {
				t.Fatalf("round %d: write %d lost: word reads %d", round, w, got)
			}
			if pages[w] != pages[0] {
				t.Fatalf("round %d: writers %d and 0 found different pages", round, w)
			}
		}
	}
	if got := m.Footprint(); got != 64*writers {
		t.Fatalf("footprint = %d words, want %d", got, 64*writers)
	}
}

// TestMemoryHasNoGlobalLock: the shape claim by construction — Memory has no
// lock field for a Read*/Write*/*Version* path to take; the only locks are
// the pages'.
func TestMemoryHasNoGlobalLock(t *testing.T) {
	mt := reflect.TypeOf(Memory{})
	for i := 0; i < mt.NumField(); i++ {
		ft := mt.Field(i).Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if _, locks := reflect.PointerTo(ft).MethodByName("Lock"); locks {
			t.Errorf("Memory.%s is a lock shared by every page", mt.Field(i).Name)
		}
	}
}
