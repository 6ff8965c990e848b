package core

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// FuzzAccessSet drives an accessSet with put, put of a present base, lookup
// and reset, across index growth, against a map plus an order list. Each op
// is two bytes: the low three bits of the first pick the op, its high bits
// and the second byte the base.
func FuzzAccessSet(f *testing.F) {
	var grow []byte
	for k := 0; k < 300; k++ {
		grow = append(grow, byte(k>>8)<<3, byte(k)) // puts through index sizes 16 to 1,024
	}
	f.Add(grow)
	f.Add([]byte{0, 1, 0, 2, 3, 1, 5, 1, 0, 1, 1, 2, 3, 2, 3, 2, 0, 2, 4, 0, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s accessSet
		var order []mem.Addr
		pos := map[mem.Addr]int{}
		check := func() {
			t.Helper()
			if !slices.Equal(s.entries, order) {
				t.Fatalf("entries %#x, model %#x", s.entries, order)
			}
			for base, j := range pos {
				if got := s.find(base); got != j {
					t.Fatalf("find(%#x) = %d, model %d", base, got, j)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] & 7
			base := mem.Addr(ops[i]>>3)<<40 | mem.Addr(ops[i+1])
			j, seen := pos[base]
			switch op {
			case 0, 1, 2, 3: // put
				got := s.put(base)
				if !seen {
					j = len(order)
					order = append(order, base)
					pos[base] = j
				}
				if got != j {
					t.Fatalf("put(%#x) = %d, model %d", base, got, j)
				}
			case 4: // reset
				if ops[i+1]%4 != 0 {
					continue
				}
				check()
				s.reset()
				order = order[:0]
				clear(pos)
			default: // lookup
				if got := s.find(base); (got >= 0) != seen || seen && got != j {
					t.Fatalf("find(%#x) = %d, model present %v at %d", base, got, seen, j)
				}
			}
		}
		check()
	})
}

// FuzzBlockSet drives a blockSet with put, put for update, release, re-put
// after release, lookup and reset, across index growth, against a map of
// keys plus the blocks' first-touch order and the first 64 puts. Each op is
// two bytes: the low three bits of the first pick the op, its high bits the
// region and the second byte the key (three words apart, so a block holds up
// to 22 keys and a region 12 blocks).
func FuzzBlockSet(f *testing.F) {
	var grow []byte
	for k := 0; k < 400; k++ {
		grow = append(grow, byte(k%32)<<3, byte(k/32*22+k%3)) // 384 blocks: index sizes 8 to 1,024
	}
	f.Add(grow)
	f.Add([]byte{0, 1, 0, 30, 3, 2, 4, 1, 0, 1, 6, 2, 7, 30, 4, 2, 3, 2, 5, 0, 0, 9, 3, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type state struct{ held, forWrite bool }
		var s blockSet
		keys := map[mem.Addr]state{}
		var blocks, first []mem.Addr
		live := 0
		check := func() {
			t.Helper()
			if len(s.blocks) != len(blocks) {
				t.Fatalf("%d blocks, model %d", len(s.blocks), len(blocks))
			}
			var want []mem.Addr // read-locked keys: blocks in first-touch order, keys ascending
			for j, base := range blocks {
				var held, forWrite uint64
				for i := range mem.Addr(64) {
					st := keys[base+i]
					if st.held {
						held |= 1 << i
					}
					if st.forWrite {
						forWrite |= 1 << i
					}
					if st.held && !st.forWrite {
						want = append(want, base+i)
					}
				}
				if b := s.blocks[j]; b != (readBlock{base, held, forWrite}) {
					t.Fatalf("block %d = %+v, model {%#x %#x %#x}", j, b, base, held, forWrite)
				}
			}
			var got []mem.Addr
			for k := range s.readLocked() {
				got = append(got, k)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("readLocked yields %#x, model %#x", got, want)
			}
			if len(s.first) != len(first) {
				t.Fatalf("%d first puts, model %d", len(s.first), len(first))
			}
			for p, k := range first {
				if got := s.firstKey(p); got != k {
					t.Fatalf("put %d was %#x, model %#x", p, got, k)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] & 7
			k := mem.Addr(ops[i]>>3)<<40 | 3*mem.Addr(ops[i+1])
			st := keys[k]
			switch op {
			case 0, 1, 2, 3: // put; 3: for update
				if !slices.Contains(blocks, k&^63) {
					blocks = append(blocks, k&^63)
				}
				if !st.held {
					if len(first) < 64 {
						first = append(first, k)
					}
					st.held = true
					live++
				}
				b, bit := s.put(k)
				if b.base != k&^63 || bit != 1<<(k&63) {
					t.Fatalf("put(%#x) = block %#x bit %#x", k, b.base, bit)
				}
				if op == 3 {
					b.forWrite |= bit
					st.forWrite = true
				}
				keys[k] = st
			case 4: // release
				if got := s.release(k); got != st.held {
					t.Fatalf("release(%#x) = %v, model held %v", k, got, st.held)
				}
				if st.held {
					live--
				}
				delete(keys, k)
			case 5: // reset
				if ops[i+1]%4 != 0 {
					continue
				}
				check()
				s.reset()
				clear(keys)
				blocks, first, live = blocks[:0], first[:0], 0
			default: // lookup
				if s.holds(k) != st.held || s.forWrite(k) != st.forWrite {
					t.Fatalf("holds(%#x), forWrite = %v, %v; model %+v", k, s.holds(k), s.forWrite(k), st)
				}
			}
			if s.live != live {
				t.Fatalf("%d keys held, model %d", s.live, live)
			}
		}
		check()
	})
}

// TestScanReadSetFootprint: after a 1,024-object visible scan the read set
// keeps at most 1 KB of storage (17 block entries, their index and the
// predictor's first 64 read positions) and the word arena holds nothing:
// the read locks pin the values in shared memory. One 8-byte key per object
// and an int32 index kept 18 KB; a Go map from base to value slice plus an
// order list keeps about 88 KB.
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
	held := &r0.txScratch.held
	if held.live != objects {
		t.Fatalf("read set holds %d objects, want %d", held.live, objects)
	}
	size := cap(held.blocks)*int(unsafe.Sizeof(readBlock{})) + cap(held.index)*int(unsafe.Sizeof(int32(0))) + cap(held.first)*int(unsafe.Sizeof(uint16(0)))
	t.Logf("read set of %d objects: %d B (%d blocks, %d index slots, %d first puts)", objects, size, cap(held.blocks), cap(held.index), cap(held.first))
	if size > 1<<10 {
		t.Errorf("read set of %d objects keeps %d B, want <= 1 KB", objects, size)
	}
	if n := len(r0.words); n != 0 {
		t.Errorf("the scan carved %d arena words, want 0", n)
	}
}
