package core

import (
	"math/bits"

	"repro/internal/mem"
)

// accessSet is a read or write set: the objects a transaction touched, in
// first-access order, one 8-byte key each. A linear-probing index of entry
// positions + 1 (0: empty) maps a base to its latest entry. EarlyRelease
// marks an entry released in place, so the order the release bursts follow
// holds, and a base read again gets one new entry at the end.
// A read for update marks its entry write-locked: the lock it holds is the
// write lock, in Tx.wlocked, not a read lock.
// The set holds no values: those the protocol needs sit beside it by entry
// position (Tx.writeVals, Tx.tl2Reads); a visible read's lock pins its words
// in shared memory (Tx.cached).
// reset keeps every capacity, so a warm runtime allocates nothing here.
type accessSet struct {
	entries []accessEntry
	index   []int32
	live    int // entries not released
}

// accessEntry is an object's base address, with the entry's flags in top
// bits no address uses (a region is 2^mem.RegionShift words, and the
// regions are few).
type accessEntry uint64

const (
	entryReleased    accessEntry = 1 << 63
	entryWriteLocked accessEntry = 1 << 62
	entryFlags                   = entryReleased | entryWriteLocked
)

func (e accessEntry) base() mem.Addr    { return mem.Addr(e &^ entryFlags) }
func (e accessEntry) released() bool    { return e&entryReleased != 0 }
func (e accessEntry) writeLocked() bool { return e&entryWriteLocked != 0 }

// readLocked reports whether the entry holds a read lock under visible reads.
func (e accessEntry) readLocked() bool { return e&entryFlags == 0 }

// slot returns the index slot holding base, or the empty one it would take,
// probing from base's fibonacci hash.
func (s *accessSet) slot(base mem.Addr) int {
	mask := len(s.index) - 1
	i := int(uint64(base) * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(mask)))
	for s.index[i] != 0 && s.entries[s.index[i]-1].base() != base {
		i = (i + 1) & mask
	}
	return i
}

// find returns the position of base's entry, or -1 if it is absent or released.
func (s *accessSet) find(base mem.Addr) int {
	if len(s.entries) > 0 {
		if j := s.index[s.slot(base)]; j != 0 && !s.entries[j-1].released() {
			return int(j) - 1
		}
	}
	return -1
}

// put returns the position of base's entry, adding it as the new last entry
// if base is not in the set.
func (s *accessSet) put(base mem.Addr) int {
	if j := s.find(base); j >= 0 {
		return j
	}
	s.entries = append(s.entries, accessEntry(base))
	if 2*len(s.entries) > len(s.index) {
		s.index = make([]int32, max(16, 2*len(s.index)))
		for j, e := range s.entries[:len(s.entries)-1] {
			s.index[s.slot(e.base())] = int32(j + 1)
		}
	}
	s.index[s.slot(base)] = int32(len(s.entries))
	s.live++
	return len(s.entries) - 1
}

// release marks base's entry released and reports whether it was in the set.
func (s *accessSet) release(base mem.Addr) bool {
	j := s.find(base)
	if j >= 0 {
		s.entries[j] |= entryReleased
		s.live--
	}
	return j >= 0
}

func (s *accessSet) reset() {
	clear(s.index)
	s.entries, s.live = s.entries[:0], 0
}

// wordSpan is a value in the runtime's word arena: arena[off, off+n).
type wordSpan struct{ off, n uint32 }

func (w wordSpan) of(arena []uint64) []uint64 { return arena[w.off : w.off+w.n : w.off+w.n] }
