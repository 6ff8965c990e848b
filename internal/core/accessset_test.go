package core

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// FuzzAccessSet drives an accessSet with put, put of a held base, release,
// re-put after release, lookup and reset, across index growth, against a map
// plus an order list. Each op is two bytes: the low three bits of the first pick the
// op, its high bits and the second byte the base.
func FuzzAccessSet(f *testing.F) {
	var grow []byte
	for k := 0; k < 300; k++ {
		grow = append(grow, byte(k>>8)<<3, byte(k)) // puts through index sizes 16 to 1,024
	}
	f.Add(grow)
	f.Add([]byte{0, 1, 0, 2, 3, 1, 5, 1, 0, 1, 1, 2, 3, 2, 3, 2, 0, 2, 5, 2, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type entry struct {
			base     mem.Addr
			released bool
		}
		var s accessSet
		var order []entry
		latest := map[mem.Addr]int{}
		live := 0
		check := func() {
			t.Helper()
			if len(s.entries) != len(order) {
				t.Fatalf("%d entries, model %d", len(s.entries), len(order))
			}
			for j, e := range s.entries {
				m := order[j]
				if e.base() != m.base || e.writeLocked() || e.released() != m.released {
					t.Fatalf("entry %d = %+v, model %+v", j, e, m)
				}
			}
			for base, j := range latest {
				want := j
				if order[j].released {
					want = -1
				}
				if got := s.find(base); got != want {
					t.Fatalf("find(%#x) = %d, model %d", base, got, want)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] & 7
			base := mem.Addr(ops[i]>>3)<<40 | mem.Addr(ops[i+1])
			j, seen := latest[base]
			held := seen && !order[j].released
			switch op {
			case 0, 1, 2: // put
				got := s.put(base)
				if held {
					if got != j {
						t.Fatalf("put(%#x) = %d, model held at %d", base, got, j)
					}
				} else {
					if got != len(order) {
						t.Fatalf("put(%#x) = %d, want the new last position %d", base, got, len(order))
					}
					order = append(order, entry{base: base})
					latest[base] = len(order) - 1
					live++
				}
			case 3: // release
				if got := s.release(base); got != held {
					t.Fatalf("release(%#x) = %v, model held %v", base, got, held)
				}
				if held {
					order[j].released = true
					live--
				}
			case 4: // reset
				if ops[i+1]%4 != 0 {
					continue
				}
				check()
				s.reset()
				order, live = order[:0], 0
				clear(latest)
			default: // lookup
				if got := s.find(base); (got >= 0) != held || held && got != j {
					t.Fatalf("find(%#x) = %d, model held %v at %d", base, got, held, j)
				}
			}
			if s.live != live {
				t.Fatalf("%d live entries, model %d", s.live, live)
			}
		}
		check()
	})
}

// TestScanReadSetFootprint: after a 1,024-object visible scan the read set
// keeps at most 20 KB of storage (8-byte entries and their index) and the
// word arena holds nothing: the read locks pin the values in shared memory.
// A Go map from base to value slice plus an order list keeps about 88 KB.
func TestScanReadSetFootprint(t *testing.T) {
	const objects = 1024
	s := testSystem(t, nil)
	base := s.Mem.Alloc(objects, 0)
	var r0 *Runtime
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		r0 = rt
		rt.Run(func(tx *Tx) {
			for i := 0; i < objects; i++ {
				tx.Read(base + mem.Addr(i))
			}
		})
	})
	s.RunToCompletion()
	reads := &r0.txScratch.reads
	if reads.live != objects {
		t.Fatalf("read set holds %d objects, want %d", reads.live, objects)
	}
	size := cap(reads.entries)*int(unsafe.Sizeof(accessEntry(0))) + cap(reads.index)*int(unsafe.Sizeof(int32(0)))
	t.Logf("read set of %d objects: %d B (%d entries, %d index slots)", objects, size, cap(reads.entries), cap(reads.index))
	if size > 20<<10 {
		t.Errorf("read set of %d objects keeps %d B, want <= 20 KB", objects, size)
	}
	if n := len(r0.words); n != 0 {
		t.Errorf("the scan carved %d arena words, want 0", n)
	}
}
