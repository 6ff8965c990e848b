// Package hashset implements the synchrobench-style hash table benchmark of
// §5.2: a fixed array of buckets, each a sorted singly-linked list of nodes
// living in shared memory. A bucket is an intset.List whose head pointer is
// the bucket's slot. The operations are contains, add, remove and (for the
// eager/lazy comparison of Figure 4(c)) move.
//
// Both a transactional version (through the TM2C runtime, on the buckets'
// lists) and a bare sequential version (direct shared-memory accesses, word
// by word) are provided; they walk the same memory layout.
//
// Layout: the set header holds the bucket array (one head pointer per
// bucket); a node is intset's two-word object [key, next]. Address 0 is the
// nil pointer (never allocated by internal/mem).
package hashset

import (
	"fmt"
	"time"

	"repro/internal/apps/intset"
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

// Set is the shared-memory hash table.
type Set struct {
	sys     *core.System
	buckets core.TArray[mem.Addr] // bucket head pointers, one word each
}

// New allocates a set with nbuckets buckets. Like the paper's initial hash
// table, the bucket array lives entirely behind one memory controller
// (§5.2: "the initial hash table resides only in one of the four memory
// controllers").
func New(sys *core.System, nbuckets int) *Set {
	return &Set{sys: sys, buckets: core.NewTArray(sys, core.AddrCodec(), nbuckets, mem.Nil)}
}

func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0x9e3779b97f4a7c15
	key ^= key >> 29
	return key
}

// bucketOf returns the index of key's bucket.
func (s *Set) bucketOf(key uint64) int { return int(hashKey(key) % uint64(s.buckets.Len())) }

// list views bucket i as a sorted list.
func (s *Set) list(i int) *intset.List {
	return intset.At(s.sys, s.buckets.At(i), PerNodeCompute)
}

// InitFill populates the set with n distinct keys drawn from [1, keyRange]
// using raw accesses (setup code outside the simulation). It returns the
// inserted keys.
func (s *Set) InitFill(n int, keyRange uint64, r *port.Rand) []uint64 {
	inserted := make([]uint64, 0, n)
	for len(inserted) < n {
		key := r.Uint64()%keyRange + 1
		if s.list(s.bucketOf(key)).AddRaw(key) {
			inserted = append(inserted, key)
		}
	}
	return inserted
}

// RawKeys walks the whole table without latency and returns every key,
// bucket by bucket.
func (s *Set) RawKeys() []uint64 {
	var keys []uint64
	for i := range s.buckets.Len() {
		keys = append(keys, s.list(i).RawKeys()...)
	}
	return keys
}

// Check verifies the table from raw memory: every bucket is a strictly
// increasing list, and every key sits in the bucket its hash names — so no
// key is in the table twice.
func (s *Set) Check() error {
	for i := range s.buckets.Len() {
		l := s.list(i)
		if err := l.Check(); err != nil {
			return fmt.Errorf("hashset: bucket %d: %w", i, err)
		}
		for _, k := range l.RawKeys() {
			if b := s.bucketOf(k); b != i {
				return fmt.Errorf("hashset: key %d in bucket %d, hashes to %d", k, i, b)
			}
		}
	}
	return nil
}

// Contains reports whether key is in the set (transactional).
func (s *Set) Contains(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	return s.list(s.bucketOf(key)).Contains(rt, core.Normal, key)
}

// Add inserts key; false if it was already present ("failed updates count as
// read-only transactions", §5.2). New nodes are allocated near the calling
// core's closest memory controller, as in the paper.
func (s *Set) Add(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	return s.list(s.bucketOf(key)).Add(rt, core.Normal, key)
}

// Remove deletes key; false if absent.
func (s *Set) Remove(rt *core.Runtime, key uint64) bool {
	rt.Compute(OpBaseCompute)
	return s.list(s.bucketOf(key)).Remove(rt, core.Normal, key)
}

// Move atomically removes from and inserts to (the §5.2 move operation used
// by the eager-vs-lazy experiment: it issues a write in the middle of the
// transaction). It returns false if from was absent or to already present.
func (s *Set) Move(rt *core.Runtime, from, to uint64) bool {
	rt.Compute(2 * OpBaseCompute)
	src, dst := s.list(s.bucketOf(from)), s.list(s.bucketOf(to))
	var ok bool
	rt.Run(func(tx *core.Tx) {
		ok = src.RemoveTx(tx, rt, from) && dst.AddTx(tx, rt, to)
	})
	return ok
}

// Sequential variants: the same traversal over raw memory with latency
// charged through mem.Read/ReadBatch, without any locking, word by word.

func (s *Set) seqLocate(p core.Port, coreID int, key uint64) (bucket core.TVar[mem.Addr], prev, cur mem.Addr, curKey uint64) {
	bucket = s.buckets.At(s.bucketOf(key))
	cur = bucket.GetDirect(p, coreID)
	for cur != 0 {
		p.Advance(s.sys.Platform().Compute(PerNodeCompute))
		n := s.sys.Mem.ReadBatch(p, coreID, cur, intset.NodeWords)
		curKey = n[0]
		if curKey >= key {
			return bucket, prev, cur, curKey
		}
		prev, cur = cur, mem.Addr(n[intset.NextOff])
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
	nv := s.sys.Mem.AllocNear(intset.NodeWords, coreID)
	s.sys.Mem.WriteBatch(p, coreID, []mem.Addr{nv, nv + intset.NextOff}, []uint64{key, uint64(cur)})
	if prev == 0 {
		bucket.SetDirect(p, coreID, nv)
	} else {
		// The bare-sequential baseline needs no locking and therefore no
		// whole-object write: splice by storing the single next-pointer
		// word, exactly the charge the fig4 speedup denominators have
		// always paid.
		s.sys.Mem.Write(p, coreID, prev+intset.NextOff, uint64(nv))
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
	next := s.sys.Mem.Read(p, coreID, cur+intset.NextOff)
	if prev == 0 {
		bucket.SetDirect(p, coreID, mem.Addr(next))
	} else {
		// Word-granular splice, matching the baseline's historic charge
		// (one 1-word read of cur.next, one 1-word write of prev.next).
		s.sys.Mem.Write(p, coreID, prev+intset.NextOff, next)
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
