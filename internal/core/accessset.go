package core

import (
	"iter"
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/placement"
)

// accessSet is the write set, and TL2's read set: the objects a transaction
// touched, in first-access order, one 8-byte key each, behind a
// linear-probing index of entry positions + 1 (0: empty). The set holds no
// values: those the protocol needs sit beside it by entry position
// (Tx.writeVals, Tx.tl2Reads). reset keeps every capacity, so a warm
// runtime allocates nothing here.
type accessSet struct {
	entries []mem.Addr
	index   []int32
}

// slot returns the index slot holding base, or the empty one it would take,
// probing from base's fibonacci hash.
func (s *accessSet) slot(base mem.Addr) int {
	mask := len(s.index) - 1
	i := int(uint64(base) * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(mask)))
	for s.index[i] != 0 && s.entries[s.index[i]-1] != base {
		i = (i + 1) & mask
	}
	return i
}

// find returns the position of base's entry, or -1.
func (s *accessSet) find(base mem.Addr) int {
	if len(s.entries) == 0 {
		return -1
	}
	return int(s.index[s.slot(base)]) - 1
}

// put returns the position of base's entry, adding it as the new last entry
// if base is not in the set.
func (s *accessSet) put(base mem.Addr) int {
	if j := s.find(base); j >= 0 {
		return j
	}
	s.entries = append(s.entries, base)
	if 2*len(s.entries) > len(s.index) {
		s.index = make([]int32, max(16, 2*len(s.index)))
		for j, e := range s.entries[:len(s.entries)-1] {
			s.index[s.slot(e)] = int32(j + 1)
		}
	}
	s.index[s.slot(base)] = int32(len(s.entries))
	return len(s.entries) - 1
}

func (s *accessSet) reset() {
	clear(s.index)
	s.entries = s.entries[:0]
}

// blockSet is the read set under visible reads. Every read there is a lock
// held at a DTM node, so the set records which locks the attempt holds, not
// what it read: one entry per 64-word block touched, its base and two masks,
// the keys held and, of those, the ones read for update (whose lock is the
// write lock, in Tx.wlocked). Entries stay in first-touch order behind a
// linear-probing index of entry positions + 1 (0: empty), at most 3/4
// full. A release clears its key's bits in place and a later put sets them
// again, so iteration visits blocks in first-touch order and keys ascending
// within a block. The set also keeps its first 64 puts in order, as block
// position << 6 | bit: the read positions of the read-for-update predictor
// (Tx.forUpdate). reset keeps every capacity, so a warm runtime allocates
// nothing here.
type blockSet struct {
	blocks []readBlock
	index  []int32
	first  []uint16
	live   int // keys held
}

// readBlock is the keys of one 64-word block in a blockSet: key base+i is
// in the set when bit i of held is set.
type readBlock struct {
	base           mem.Addr
	held, forWrite uint64
}

// find returns the position of k's block (-1 if no put touched it) and
// k's bit in the block.
func (s *blockSet) find(k mem.Addr) (int, uint64) {
	if len(s.blocks) == 0 {
		return -1, 1 << (k & 63)
	}
	return int(s.index[s.slot(k&^63)]) - 1, 1 << (k & 63)
}

// slot is accessSet.slot over block bases.
func (s *blockSet) slot(base mem.Addr) int {
	mask := len(s.index) - 1
	i := int(uint64(base) * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(mask)))
	for s.index[i] != 0 && s.blocks[s.index[i]-1].base != base {
		i = (i + 1) & mask
	}
	return i
}

// holds reports whether k is held.
func (s *blockSet) holds(k mem.Addr) bool {
	j, bit := s.find(k)
	return j >= 0 && s.blocks[j].held&bit != 0
}

// forWrite reports whether k is held for update.
func (s *blockSet) forWrite(k mem.Addr) bool {
	j, bit := s.find(k)
	return j >= 0 && s.blocks[j].forWrite&bit != 0
}

// put adds k to the set, a read lock held, and returns k's block and bit.
// A key already held stays as it is.
func (s *blockSet) put(k mem.Addr) (*readBlock, uint64) {
	j, bit := s.find(k)
	if j < 0 {
		j = len(s.blocks)
		if j == cap(s.blocks) { // by half, not double: a scan's blocks are few and exact
			s.blocks = append(make([]readBlock, 0, max(4, j+j/2)), s.blocks...)
		}
		s.blocks = append(s.blocks, readBlock{base: k &^ 63})
		if 4*len(s.blocks) > 3*len(s.index) {
			s.index = make([]int32, max(8, 2*len(s.index)))
			for i, b := range s.blocks[:j] {
				s.index[s.slot(b.base)] = int32(i + 1)
			}
		}
		s.index[s.slot(k&^63)] = int32(j + 1)
	}
	b := &s.blocks[j]
	if b.held&bit == 0 {
		b.held |= bit
		s.live++
		if len(s.first) < 64 {
			s.first = append(s.first, uint16(j<<6|int(k&63)))
		}
	}
	return b, bit
}

// firstKey returns the key of the set's put at read position p < len(first).
func (s *blockSet) firstKey(p int) mem.Addr {
	f := s.first[p]
	return s.blocks[f>>6].base + mem.Addr(f&63)
}

// release drops k and reports whether it was held.
func (s *blockSet) release(k mem.Addr) bool {
	j, bit := s.find(k)
	if j < 0 || s.blocks[j].held&bit == 0 {
		return false
	}
	s.blocks[j].held &^= bit
	s.blocks[j].forWrite &^= bit
	s.live--
	return true
}

// readLocked yields the keys held under a read lock: blocks in first-touch
// order, keys ascending within a block.
func (s *blockSet) readLocked() iter.Seq[mem.Addr] {
	return func(yield func(mem.Addr) bool) {
		for _, b := range s.blocks {
			for m := b.held &^ b.forWrite; m != 0; m &= m - 1 {
				if !yield(b.base + mem.Addr(bits.TrailingZeros64(m))) {
					return
				}
			}
		}
	}
}

func (s *blockSet) reset() {
	clear(s.index)
	s.blocks, s.first, s.live = s.blocks[:0], s.first[:0], 0
}

// wordSpan is a value in the runtime's word arena: arena[off, off+n).
type wordSpan struct{ off, n uint32 }

func (w wordSpan) of(arena []uint64) []uint64 { return arena[w.off : w.off+w.n : w.off+w.n] }

// lockSet is a finished attempt's locks, kept until their releases leave
// (Runtime.carry): the read locks as the attempt's block set held them —
// blocks in first-touch order, a block's read-locked keys as a mask — and
// the write locks in acquisition order, with the attempt's ID and the
// placement snapshot that resolves each key to its DTM node. refs counts
// the nodes whose release is still to be drafted from it and, on net, its
// releases riding an unanswered request (Runtime.riding).
type lockSet struct {
	reads   []lockBlock
	wlocked []mem.Addr
	txID    uint64
	place   placement.Snapshot
	refs    int

	// Room for a transfer's locks, where reads and wlocked start: most
	// sets keep no storage of their own.
	inReads  [2]lockBlock
	inWrites [2]mem.Addr
}

// lockBlock is the read locks of one 64-word block in a lockSet: key
// base+i when bit i of keys is set.
type lockBlock struct {
	base mem.Addr
	keys uint64
}

// lockSets is a runtime's free list of lock sets. A set on it is empty but
// keeps its capacity, and pins no placement snapshot.
type lockSets []*lockSet

// get returns an empty set with room for n read blocks: the list's
// smallest that has room, or else its largest, grown, or a new one when the
// list is empty. The list so keeps a scan's capacity in as few sets as the
// core's scans need at once.
func (f *lockSets) get(n int) *lockSet {
	if len(*f) == 0 {
		ls := new(lockSet)
		ls.reads, ls.wlocked = ls.inReads[:0], ls.inWrites[:0]
		*f = append(*f, ls)
	}
	best := 0
	for i, ls := range *f {
		c, b := cap(ls.reads), cap((*f)[best].reads)
		if c >= n && (b < n || c < b) || c < n && b < n && c > b {
			best = i
		}
	}
	ls, last := (*f)[best], len(*f)-1
	(*f)[best], (*f)[last] = (*f)[last], nil
	*f = (*f)[:last]
	ls.reads = slices.Grow(ls.reads, n)
	return ls
}

// put empties ls and puts it on the list.
func (f *lockSets) put(ls *lockSet) {
	ls.reads, ls.wlocked = ls.reads[:0], ls.wlocked[:0]
	ls.place = placement.Snapshot{}
	*f = append(*f, ls)
}

// unref drops one reference to ls, putting it back on the list once none
// is left.
func (f *lockSets) unref(ls *lockSet) {
	if ls.refs--; ls.refs == 0 {
		f.put(ls)
	}
}
