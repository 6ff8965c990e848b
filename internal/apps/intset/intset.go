// Package intset implements the sorted linked list of [key, next] nodes in
// shared memory that both set benchmarks run on: the list benchmark of §6.2,
// one list exercised with the synchrobench contains/add/remove mix, and each
// bucket of the §5.2 hash table (internal/apps/hashset), whose lists are
// views of its bucket head pointers (At).
//
// The list is the elastic-transaction showcase: a search traversal only
// needs consecutive reads to be atomic, so the read-only prefix can either
// release its read locks early (core.ElasticEarly) or take no locks at all
// and validate by re-reading (core.ElasticRead). The operations follow the
// kind of the transaction they run in (Tx.Kind), over one traversal.
package intset

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/port"
)

// PerNodeCompute is the nominal per-node traversal cost of the list
// benchmark.
const PerNodeCompute = 600 * time.Nanosecond

// A node is one list cell, one two-word object [key, next] under a single
// lock. NodeWords and NextOff give that layout to word-granular code (the
// hash table's sequential baselines).
const (
	NodeWords = 2
	NextOff   = 1
)

type node struct {
	Key  uint64
	Next mem.Addr
}

// nodeCodec translates node structs to and from their two-word layout.
var nodeCodec = core.FuncCodec(NodeWords,
	func(n node, dst []uint64) { dst[0], dst[1] = n.Key, uint64(n.Next) },
	func(src []uint64) node { return node{Key: src[0], Next: mem.Addr(src[1])} },
)

// List is the shared-memory sorted list.
type List struct {
	sys     *core.System
	head    core.TVar[mem.Addr] // head pointer
	perNode time.Duration       // compute charged per visited node
}

// New allocates an empty list (head pointer behind controller 0) that
// charges PerNodeCompute per visited node.
func New(sys *core.System) *List {
	return At(sys, core.NewTVar(sys, core.AddrCodec(), mem.Nil), PerNodeCompute)
}

// At views the existing head pointer head as a list that charges perNode
// per visited node.
func At(sys *core.System, head core.TVar[mem.Addr], perNode time.Duration) *List {
	return &List{sys: sys, head: head, perNode: perNode}
}

// nodeAt views the node object at base.
func (l *List) nodeAt(base mem.Addr) core.TVar[node] {
	return core.TVarAt(l.sys, nodeCodec, base)
}

// InitFill inserts n distinct keys from [1, keyRange] with raw accesses.
func (l *List) InitFill(n int, keyRange uint64, r *port.Rand) []uint64 {
	inserted := make([]uint64, 0, n)
	for len(inserted) < n {
		key := r.Uint64()%keyRange + 1
		if l.AddRaw(key) {
			inserted = append(inserted, key)
		}
	}
	return inserted
}

// AddRaw inserts key without latency accounting (setup code outside the
// simulated machine); false if present.
func (l *List) AddRaw(key uint64) bool {
	prev, cur := mem.Nil, l.head.GetRaw()
	for cur != 0 && l.nodeAt(cur).GetRaw().Key < key {
		prev, cur = cur, l.nodeAt(cur).GetRaw().Next
	}
	if cur != 0 && l.nodeAt(cur).GetRaw().Key == key {
		return false
	}
	nv := core.NewTVar(l.sys, nodeCodec, node{Key: key, Next: cur})
	if prev == 0 {
		l.head.SetRaw(nv.Addr())
	} else {
		pv := l.nodeAt(prev)
		pv.SetRaw(node{Key: pv.GetRaw().Key, Next: nv.Addr()})
	}
	return true
}

// RawKeys returns the current keys in list order (verification only).
func (l *List) RawKeys() []uint64 {
	var keys []uint64
	cur := l.head.GetRaw()
	for cur != 0 {
		n := l.nodeAt(cur).GetRaw()
		keys = append(keys, n.Key)
		cur = n.Next
	}
	return keys
}

// Check verifies the list from raw memory: its keys strictly increase from
// 1 on. It stops at the first violation, so a corrupted list that loops
// back fails instead of hanging.
func (l *List) Check() error {
	var prev uint64
	for cur, i := l.head.GetRaw(), 0; cur != 0; i++ {
		n := l.nodeAt(cur).GetRaw()
		if n.Key <= prev {
			return fmt.Errorf("intset: key %d at position %d follows %d", n.Key, i, prev)
		}
		prev, cur = n.Key, n.Next
	}
	return nil
}

// locate traverses inside tx until cur.key >= key. Under ElasticEarly,
// nodes leaving the two-node window are released immediately.
func (l *List) locate(tx *core.Tx, rt *core.Runtime, key uint64) (prev, cur mem.Addr, curKey uint64) {
	early := tx.Kind() == core.ElasticEarly
	var prevPrev mem.Addr
	headReleased := false
	cur = l.head.Get(tx)
	for cur != 0 {
		rt.Compute(l.perNode)
		n := l.nodeAt(cur).Get(tx)
		curKey = n.Key
		if early {
			// The traversal window is {prev, cur}; anything older is no
			// longer semantically relevant to the search (§6).
			if prevPrev != 0 {
				l.nodeAt(prevPrev).EarlyRelease(tx)
			} else if prev != 0 && !headReleased {
				l.head.EarlyRelease(tx)
				headReleased = true
			}
		}
		if curKey >= key {
			return prev, cur, curKey
		}
		prevPrev, prev, cur = prev, cur, n.Next
	}
	return prev, 0, 0
}

// ContainsTx reports, inside tx, whether key is present.
func (l *List) ContainsTx(tx *core.Tx, rt *core.Runtime, key uint64) bool {
	_, cur, curKey := l.locate(tx, rt, key)
	return cur != 0 && curKey == key
}

// AddTx inserts key inside tx; false if already present. The new node is
// allocated near the inserting core (§5.2); the zero init is free and the
// object is populated transactionally before the pointer publishes it.
func (l *List) AddTx(tx *core.Tx, rt *core.Runtime, key uint64) bool {
	prev, cur, curKey := l.locate(tx, rt, key)
	if cur != 0 && curKey == key {
		return false
	}
	nv := core.NewTVarNear(l.sys, nodeCodec, rt.Core(), node{})
	nv.Set(tx, node{Key: key, Next: cur})
	if prev == 0 {
		l.head.Set(tx, nv.Addr())
	} else {
		// Whole-object write: the lock unit is the object, so the update
		// conflicts with the node's readers (and, for elastic-read, sits
		// in their validation windows).
		pv := l.nodeAt(prev)
		pkey := pv.Get(tx).Key // served from the tx cache
		pv.Set(tx, node{Key: pkey, Next: nv.Addr()})
	}
	return true
}

// RemoveTx deletes key inside tx; false if absent.
func (l *List) RemoveTx(tx *core.Tx, rt *core.Runtime, key uint64) bool {
	prev, cur, curKey := l.locate(tx, rt, key)
	if cur == 0 || curKey != key {
		return false
	}
	next := l.nodeAt(cur).Get(tx).Next
	if prev == 0 {
		l.head.Set(tx, next)
	} else {
		pv := l.nodeAt(prev)
		pkey := pv.Get(tx).Key
		pv.Set(tx, node{Key: pkey, Next: next})
	}
	if tx.Kind() != core.Normal {
		// Elastic kinds do not hold read locks on the whole traversal, so
		// two adjacent removals (remove(B) writes A, remove(C) writes B)
		// would otherwise not conflict and the second unlink would be
		// lost. Writing a tombstone into the removed node serializes
		// adjacent updates via WAW and — because §6.1's validation relies
		// on committed updates writing *different* values — makes the
		// removal visible to elastic-read windows: the key field becomes
		// 0, which no live node carries.
		l.nodeAt(cur).Set(tx, node{Key: 0, Next: next})
	}
	return true
}

// Contains reports whether key is present, in a transaction of kind.
func (l *List) Contains(rt *core.Runtime, kind core.TxKind, key uint64) bool {
	var found bool
	rt.RunKind(kind, func(tx *core.Tx) { found = l.ContainsTx(tx, rt, key) })
	return found
}

// Add inserts key in a transaction of kind; false if already present.
func (l *List) Add(rt *core.Runtime, kind core.TxKind, key uint64) bool {
	var added bool
	rt.RunKind(kind, func(tx *core.Tx) { added = l.AddTx(tx, rt, key) })
	return added
}

// Remove deletes key in a transaction of kind; false if absent.
func (l *List) Remove(rt *core.Runtime, kind core.TxKind, key uint64) bool {
	var removed bool
	rt.RunKind(kind, func(tx *core.Tx) { removed = l.RemoveTx(tx, rt, key) })
	return removed
}

// Workload is the synchrobench mix for the list.
type Workload struct {
	UpdatePct int
	KeyRange  uint64
	Kind      core.TxKind // Normal, ElasticEarly or ElasticRead
}

// Worker returns a worker loop for the workload.
func (l *List) Worker(w Workload) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			l.RunOp(rt, r, w)
			rt.AddOps(1)
		}
	}
}

// RunOp executes one randomly drawn operation.
func (l *List) RunOp(rt *core.Runtime, r *port.Rand, w Workload) {
	key := r.Uint64()%w.KeyRange + 1
	if r.Intn(100) < w.UpdatePct {
		if r.Intn(2) == 0 {
			l.Add(rt, w.Kind, key)
		} else {
			l.Remove(rt, w.Kind, key)
		}
	} else {
		l.Contains(rt, w.Kind, key)
	}
}
