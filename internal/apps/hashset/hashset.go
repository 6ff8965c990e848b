// Package hashset implements the synchrobench-style hash table benchmark of
// §5.2: a fixed array of buckets, each a sorted singly-linked list of nodes
// living in shared memory. The operations are contains, add, remove and (for
// the eager/lazy comparison of Figure 4(c)) move.
//
// Both a transactional version (through the TM2C runtime) and a bare
// sequential version (direct shared-memory accesses) are provided; they run
// the same traversal logic over the same memory layout.
//
// Layout: the set header holds the bucket array (one head pointer per
// bucket); a node is a two-word object [key, next]. Address 0 is the nil
// pointer (never allocated by internal/mem).
package hashset

import (
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/port"
)

// Nominal per-operation compute costs (SCC-533 cycles turned into time);
// they model the hashing and pointer-chasing work of the slow in-order P54C
// cores and are scaled by the platform's compute factor.
const (
	OpBaseCompute  = 4 * time.Microsecond
	PerNodeCompute = 1 * time.Microsecond
)

// node is one list cell: the key and the next pointer, stored as a single
// two-word object under one lock.
type node struct {
	Key  uint64
	Next mem.Addr
}

// nodeW is the node object size in words; nodeNextOff is the word offset
// of the Next field, used by the word-granular sequential baselines.
const (
	nodeW       = 2
	nodeNextOff = 1
)

// nodeCodec translates node structs to and from their two-word layout.
var nodeCodec = core.FuncCodec(nodeW,
	func(n node, dst []uint64) { dst[0], dst[1] = n.Key, uint64(n.Next) },
	func(src []uint64) node { return node{Key: src[0], Next: mem.Addr(src[1])} },
)

// Set is the shared-memory hash table.
type Set struct {
	sys      *core.System
	buckets  core.TArray[mem.Addr] // bucket head pointers, one word each
	nbuckets int
}

// New allocates a set with nbuckets buckets. Like the paper's initial hash
// table, the bucket array lives entirely behind one memory controller
// (§5.2: "the initial hash table resides only in one of the four memory
// controllers").
func New(sys *core.System, nbuckets int) *Set {
	return &Set{
		sys:      sys,
		buckets:  core.NewTArray(sys, core.AddrCodec(), nbuckets, mem.Nil),
		nbuckets: nbuckets,
	}
}

func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0x9e3779b97f4a7c15
	key ^= key >> 29
	return key
}

// bucketVar returns the head-pointer variable of key's bucket.
func (s *Set) bucketVar(key uint64) core.TVar[mem.Addr] {
	return s.buckets.At(int(hashKey(key) % uint64(s.nbuckets)))
}

// nodeAt views the node object at base.
func (s *Set) nodeAt(base mem.Addr) core.TVar[node] {
	return core.TVarAt(s.sys, nodeCodec, base)
}

// InitFill populates the set with n distinct keys drawn from [1, keyRange]
// using raw accesses (setup code outside the simulation). It returns the
// inserted keys.
func (s *Set) InitFill(n int, keyRange uint64, r *port.Rand) []uint64 {
	inserted := make([]uint64, 0, n)
	for len(inserted) < n {
		key := r.Uint64()%keyRange + 1
		if s.rawInsert(key) {
			inserted = append(inserted, key)
		}
	}
	return inserted
}

// rawInsert inserts without latency accounting; false if present.
func (s *Set) rawInsert(key uint64) bool {
	b := s.bucketVar(key)
	prev, cur := mem.Nil, b.GetRaw()
	for cur != 0 && s.nodeAt(cur).GetRaw().Key < key {
		prev, cur = cur, s.nodeAt(cur).GetRaw().Next
	}
	if cur != 0 && s.nodeAt(cur).GetRaw().Key == key {
		return false
	}
	nv := core.NewTVar(s.sys, nodeCodec, node{Key: key, Next: cur})
	if prev == 0 {
		b.SetRaw(nv.Addr())
	} else {
		pv := s.nodeAt(prev)
		pv.SetRaw(node{Key: pv.GetRaw().Key, Next: nv.Addr()})
	}
	return true
}

// RawKeys walks the whole table without latency and returns every key, for
// invariant checking (sortedness and uniqueness are verified by tests).
func (s *Set) RawKeys() []uint64 {
	var keys []uint64
	for i := 0; i < s.nbuckets; i++ {
		cur := s.buckets.GetRaw(i)
		for cur != 0 {
			n := s.nodeAt(cur).GetRaw()
			keys = append(keys, n.Key)
			cur = n.Next
		}
	}
	return keys
}

// locate walks one bucket inside tx, returning the predecessor node (0 if
// the head pointer) and the current node (0 if past the end), such that
// cur.key >= key.
func (s *Set) locate(tx *core.Tx, rt *core.Runtime, key uint64) (bucket core.TVar[mem.Addr], prev, cur mem.Addr, curKey uint64) {
	bucket = s.bucketVar(key)
	cur = bucket.Get(tx)
	for cur != 0 {
		rt.Compute(PerNodeCompute)
		n := s.nodeAt(cur).Get(tx)
		curKey = n.Key
		if curKey >= key {
			return bucket, prev, cur, curKey
		}
		prev, cur = cur, n.Next
	}
	return bucket, prev, 0, 0
}

// Contains reports whether key is in the set (transactional).
func (s *Set) Contains(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	var found bool
	rt.Run(func(tx *core.Tx) {
		_, _, cur, curKey := s.locate(tx, rt, key)
		found = cur != 0 && curKey == key
	})
	return found
}

// Add inserts key; false if it was already present ("failed updates count as
// read-only transactions", §5.2). New nodes are allocated near the calling
// core's closest memory controller, as in the paper.
func (s *Set) Add(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	var added bool
	rt.Run(func(tx *core.Tx) {
		added = s.addInTx(tx, rt, key)
	})
	return added
}

func (s *Set) addInTx(tx *core.Tx, rt *core.Runtime, key uint64) bool {
	bucket, prev, cur, curKey := s.locate(tx, rt, key)
	if cur != 0 && curKey == key {
		return false
	}
	// Allocate near the inserting core (§5.2); the zero init is free and the
	// object is populated transactionally before the pointer publishes it.
	nv := core.NewTVarNear(s.sys, nodeCodec, rt.Core(), node{})
	nv.Set(tx, node{Key: key, Next: cur})
	if prev == 0 {
		bucket.Set(tx, nv.Addr())
	} else {
		// Whole-object write: the lock unit is the object, so updating a
		// node rewrites [key, next] under the node's base lock — the same
		// lock its readers hold (txwrite(obj) in the paper).
		pv := s.nodeAt(prev)
		pkey := pv.Get(tx).Key // served from the tx cache
		pv.Set(tx, node{Key: pkey, Next: nv.Addr()})
	}
	return true
}

// Remove deletes key; false if absent.
func (s *Set) Remove(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	var removed bool
	rt.Run(func(tx *core.Tx) {
		removed = s.removeInTx(tx, rt, key)
	})
	return removed
}

func (s *Set) removeInTx(tx *core.Tx, rt *core.Runtime, key uint64) bool {
	bucket, prev, cur, curKey := s.locate(tx, rt, key)
	if cur == 0 || curKey != key {
		return false
	}
	next := s.nodeAt(cur).Get(tx).Next
	if prev == 0 {
		bucket.Set(tx, next)
	} else {
		pv := s.nodeAt(prev)
		pkey := pv.Get(tx).Key
		pv.Set(tx, node{Key: pkey, Next: next})
	}
	return true
}

// Move atomically removes from and inserts to (the §5.2 move operation used
// by the eager-vs-lazy experiment: it issues a write in the middle of the
// transaction). It returns false if from was absent or to already present.
func (s *Set) Move(rt *core.Runtime, from, to uint64) bool {
	rt.Compute(2 * OpBaseCompute)
	var ok bool
	rt.Run(func(tx *core.Tx) {
		ok = false
		if !s.removeInTx(tx, rt, from) {
			return
		}
		if !s.addInTx(tx, rt, to) {
			return
		}
		ok = true
	})
	return ok
}

// Sequential variants: identical logic over raw memory with latency charged
// through mem.Read/ReadBatch, without any locking.

func (s *Set) seqLocate(p core.Port, coreID int, key uint64) (bucket core.TVar[mem.Addr], prev, cur mem.Addr, curKey uint64) {
	bucket = s.bucketVar(key)
	cur = bucket.GetDirect(p, coreID)
	for cur != 0 {
		p.Advance(s.sys.Platform().Compute(PerNodeCompute))
		n := s.nodeAt(cur).GetDirect(p, coreID)
		curKey = n.Key
		if curKey >= key {
			return bucket, prev, cur, curKey
		}
		prev, cur = cur, n.Next
	}
	return bucket, prev, 0, 0
}

// SeqContains is the bare sequential contains.
func (s *Set) SeqContains(p core.Port, coreID int, key uint64) bool {
	p.Advance(s.sys.Platform().Compute(OpBaseCompute))
	_, _, cur, curKey := s.seqLocate(p, coreID, key)
	return cur != 0 && curKey == key
}

// SeqAdd is the bare sequential add.
func (s *Set) SeqAdd(p core.Port, coreID int, key uint64) bool {
	p.Advance(s.sys.Platform().Compute(OpBaseCompute))
	bucket, prev, cur, curKey := s.seqLocate(p, coreID, key)
	if cur != 0 && curKey == key {
		return false
	}
	nv := core.NewTVarNear(s.sys, nodeCodec, coreID, node{})
	nv.SetDirect(p, coreID, node{Key: key, Next: cur})
	if prev == 0 {
		bucket.SetDirect(p, coreID, nv.Addr())
	} else {
		// The bare-sequential baseline needs no locking and therefore no
		// whole-object write: splice by storing the single next-pointer
		// word, exactly the charge the fig4 speedup denominators have
		// always paid.
		s.sys.Mem.Write(p, coreID, prev+nodeNextOff, uint64(nv.Addr()))
	}
	return true
}

// SeqRemove is the bare sequential remove.
func (s *Set) SeqRemove(p core.Port, coreID int, key uint64) bool {
	p.Advance(s.sys.Platform().Compute(OpBaseCompute))
	bucket, prev, cur, curKey := s.seqLocate(p, coreID, key)
	if cur == 0 || curKey != key {
		return false
	}
	next := s.sys.Mem.Read(p, coreID, cur+nodeNextOff)
	if prev == 0 {
		bucket.SetDirect(p, coreID, mem.Addr(next))
	} else {
		// Word-granular splice, matching the baseline's historic charge
		// (one 1-word read of cur.next, one 1-word write of prev.next).
		s.sys.Mem.Write(p, coreID, prev+nodeNextOff, next)
	}
	return true
}

// Workload is the synchrobench operation mix.
type Workload struct {
	UpdatePct int    // percentage of attempted updates (half add, half remove)
	MovePct   int    // percentage of move operations (Figure 4(c) only)
	KeyRange  uint64 // keys drawn uniformly from [1, KeyRange]
}

// Worker returns a transactional worker loop for the workload.
func (s *Set) Worker(w Workload) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			s.RunOp(rt, r, w)
			rt.AddOps(1)
		}
	}
}

// RunOp executes one randomly drawn operation of the workload.
func (s *Set) RunOp(rt *core.Runtime, r *port.Rand, w Workload) {
	key := r.Uint64()%w.KeyRange + 1
	roll := r.Intn(100)
	switch {
	case roll < w.MovePct:
		s.Move(rt, key, r.Uint64()%w.KeyRange+1)
	case roll < w.MovePct+w.UpdatePct:
		if r.Intn(2) == 0 {
			s.Add(rt, key)
		} else {
			s.Remove(rt, key)
		}
	default:
		s.Contains(rt, key)
	}
}

// SeqOp executes one randomly drawn sequential operation.
func (s *Set) SeqOp(p core.Port, coreID int, r *port.Rand, w Workload) {
	key := r.Uint64()%w.KeyRange + 1
	roll := r.Intn(100)
	switch {
	case roll < w.MovePct:
		if s.SeqRemove(p, coreID, key) {
			s.SeqAdd(p, coreID, r.Uint64()%w.KeyRange+1)
		}
	case roll < w.MovePct+w.UpdatePct:
		if r.Intn(2) == 0 {
			s.SeqAdd(p, coreID, key)
		} else {
			s.SeqRemove(p, coreID, key)
		}
	default:
		s.SeqContains(p, coreID, key)
	}
}
