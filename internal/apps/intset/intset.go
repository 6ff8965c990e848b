// Package intset implements the sorted linked-list benchmark of §6.2: a
// single sorted list of [key, next] nodes in shared memory, exercised with
// the synchrobench contains/add/remove mix.
//
// The list is the elastic-transaction showcase: a search traversal only
// needs consecutive reads to be atomic, so the read-only prefix can either
// release its read locks early (elastic-early) or take no locks at all and
// validate by re-reading (elastic-read). Mode selects between the three
// implementations, which share the same traversal structure.
package intset

import (
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/port"
)

// PerNodeCompute is the nominal per-node traversal cost.
const PerNodeCompute = 600 * time.Nanosecond

// Mode selects the transactional model of the list operations.
type Mode uint8

const (
	// Normal uses plain TM2C transactions (visible read locks on the whole
	// traversal).
	Normal Mode = iota
	// ElasticEarly releases the read locks of nodes that fell out of the
	// two-node traversal window (§6.1 first implementation).
	ElasticEarly
	// ElasticRead takes no read locks and validates consecutive reads from
	// shared memory (§6.1 second implementation).
	ElasticRead
)

func (m Mode) String() string {
	switch m {
	case ElasticEarly:
		return "elastic-early"
	case ElasticRead:
		return "elastic-read"
	default:
		return "normal"
	}
}

// TxKind maps the mode to the runtime's transaction kind.
func (m Mode) TxKind() core.TxKind {
	switch m {
	case ElasticEarly:
		return core.ElasticEarly
	case ElasticRead:
		return core.ElasticRead
	default:
		return core.Normal
	}
}

// node is one list cell: the key and the next pointer, one two-word object
// under a single lock.
type node struct {
	Key  uint64
	Next mem.Addr
}

// nodeW is the node object size in words.
const nodeW = 2

// nodeCodec translates node structs to and from their two-word layout.
var nodeCodec = core.FuncCodec(nodeW,
	func(n node, dst []uint64) { dst[0], dst[1] = n.Key, uint64(n.Next) },
	func(src []uint64) node { return node{Key: src[0], Next: mem.Addr(src[1])} },
)

// List is the shared-memory sorted list.
type List struct {
	sys  *core.System
	head core.TVar[mem.Addr] // head pointer
}

// New allocates an empty list (head pointer behind controller 0).
func New(sys *core.System) *List {
	return &List{sys: sys, head: core.NewTVar(sys, core.AddrCodec(), mem.Nil)}
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
		if l.rawInsert(key) {
			inserted = append(inserted, key)
		}
	}
	return inserted
}

func (l *List) rawInsert(key uint64) bool {
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

// locate traverses inside tx until cur.key >= key, applying the mode's
// elastic behaviour: under ElasticEarly, nodes leaving the two-node window
// are released immediately.
func (l *List) locate(tx *core.Tx, rt *core.Runtime, mode Mode, key uint64) (prev, cur mem.Addr, curKey uint64) {
	var prevPrev mem.Addr
	headReleased := false
	cur = l.head.Get(tx)
	for cur != 0 {
		rt.Compute(PerNodeCompute)
		n := l.nodeAt(cur).Get(tx)
		curKey = n.Key
		if mode == ElasticEarly {
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

// Contains reports whether key is present.
func (l *List) Contains(rt *core.Runtime, mode Mode, key uint64) bool {
	var found bool
	rt.RunKind(mode.TxKind(), func(tx *core.Tx) {
		_, cur, curKey := l.locate(tx, rt, mode, key)
		found = cur != 0 && curKey == key
	})
	return found
}

// Add inserts key; false if already present.
func (l *List) Add(rt *core.Runtime, mode Mode, key uint64) bool {
	var added bool
	rt.RunKind(mode.TxKind(), func(tx *core.Tx) {
		added = false
		prev, cur, curKey := l.locate(tx, rt, mode, key)
		if cur != 0 && curKey == key {
			return
		}
		nv := core.NewTVarNear(l.sys, nodeCodec, rt.Core(), node{})
		nv.Set(tx, node{Key: key, Next: cur})
		if prev == 0 {
			l.head.Set(tx, nv.Addr())
		} else {
			// Whole-object write: the lock unit is the object, so the
			// update conflicts with the node's readers (and, for
			// elastic-read, sits in their validation windows).
			pv := l.nodeAt(prev)
			pkey := pv.Get(tx).Key
			pv.Set(tx, node{Key: pkey, Next: nv.Addr()})
		}
		added = true
	})
	return added
}

// Remove deletes key; false if absent.
func (l *List) Remove(rt *core.Runtime, mode Mode, key uint64) bool {
	var removed bool
	rt.RunKind(mode.TxKind(), func(tx *core.Tx) {
		removed = false
		prev, cur, curKey := l.locate(tx, rt, mode, key)
		if cur == 0 || curKey != key {
			return
		}
		next := l.nodeAt(cur).Get(tx).Next
		if prev == 0 {
			l.head.Set(tx, next)
		} else {
			pv := l.nodeAt(prev)
			pkey := pv.Get(tx).Key
			pv.Set(tx, node{Key: pkey, Next: next})
		}
		if mode != Normal {
			// Elastic modes do not hold read locks on the whole traversal,
			// so two adjacent removals (remove(B) writes A, remove(C)
			// writes B) would otherwise not conflict and the second unlink
			// would be lost. Writing a tombstone into the removed node
			// serializes adjacent updates via WAW and — because §6.1's
			// validation relies on committed updates writing *different*
			// values — makes the removal visible to elastic-read windows:
			// the key field becomes 0, which no live node carries.
			l.nodeAt(cur).Set(tx, node{Key: 0, Next: next})
		}
		removed = true
	})
	return removed
}

// Workload is the synchrobench mix for the list.
type Workload struct {
	UpdatePct int
	KeyRange  uint64
	Mode      Mode
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
			l.Add(rt, w.Mode, key)
		} else {
			l.Remove(rt, w.Mode, key)
		}
	} else {
		l.Contains(rt, w.Mode, key)
	}
}
