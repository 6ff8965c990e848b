// Package skiplist implements a transactional skip list over TM2C shared
// memory. The paper evaluates synchrobench's hash table and linked list;
// the skip list is the suite's third classic search structure and serves as
// an extension benchmark: logarithmic traversals produce mid-sized read
// sets (between the hash table's short chains and the list's long ones) and
// updates write several predecessor nodes at once, exercising multi-object
// write-lock batching.
//
// Layout: a node is a fixed-size object of 2+MaxLevel words:
// [key, level, next_0 .. next_{MaxLevel-1}]; unused levels hold 0. The head
// node has key 0 (smaller than every stored key; keys are >= 1). Fixed-size
// nodes keep object bases and lengths consistent across all accessors,
// which the object-granularity lock protocol requires.
package skiplist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/port"
)

// MaxLevel is the tallest tower; 2^8 = 256x fan-out covers the benchmark
// sizes used here.
const MaxLevel = 8

// nodeW is the node object size in words.
const nodeW = 2 + MaxLevel

// node is one tower: the key, the tower height, and MaxLevel next pointers
// (unused levels hold mem.Nil) — a single fixed-size object under one lock.
type node struct {
	Key   uint64
	Level int
	Next  [MaxLevel]mem.Addr
}

// nodeCodec translates node structs to and from their fixed layout:
// [key, level, next_0 .. next_{MaxLevel-1}].
var nodeCodec = core.FuncCodec(nodeW,
	func(n node, dst []uint64) {
		dst[0], dst[1] = n.Key, uint64(n.Level)
		for i, a := range n.Next {
			dst[2+i] = uint64(a)
		}
	},
	func(src []uint64) node {
		n := node{Key: src[0], Level: int(src[1])}
		for i := range n.Next {
			n.Next[i] = mem.Addr(src[2+i])
		}
		return n
	},
)

// PerNodeCompute is the nominal traversal cost per visited node.
const PerNodeCompute = 700 * time.Nanosecond

// List is the shared-memory skip list.
type List struct {
	sys  *core.System
	head core.TVar[node]
}

// New allocates an empty skip list (head tower behind controller 0).
func New(sys *core.System) *List {
	return &List{sys: sys, head: core.NewTVar(sys, nodeCodec, node{Level: MaxLevel})}
}

// nodeAt views the tower object at base.
func (l *List) nodeAt(base mem.Addr) core.TVar[node] {
	return core.TVarAt(l.sys, nodeCodec, base)
}

// randomLevel draws a geometric tower height in [1, MaxLevel].
func randomLevel(r *port.Rand) int {
	lvl := 1
	for lvl < MaxLevel && r.Uint64()&3 == 0 { // p = 1/4
		lvl++
	}
	return lvl
}

// InitFill inserts n distinct keys from [1, keyRange] with raw accesses.
func (l *List) InitFill(n int, keyRange uint64, r *port.Rand) []uint64 {
	inserted := make([]uint64, 0, n)
	for len(inserted) < n {
		key := r.Uint64()%keyRange + 1
		if l.rawInsert(key, randomLevel(r)) {
			inserted = append(inserted, key)
		}
	}
	return inserted
}

func (l *List) rawInsert(key uint64, level int) bool {
	var preds [MaxLevel]core.TVar[node]
	cur := l.head
	for lv := MaxLevel - 1; lv >= 0; lv-- {
		for {
			next := cur.GetRaw().Next[lv]
			if next == 0 || l.nodeAt(next).GetRaw().Key >= key {
				break
			}
			cur = l.nodeAt(next)
		}
		preds[lv] = cur
	}
	at := preds[0].GetRaw().Next[0]
	if at != 0 && l.nodeAt(at).GetRaw().Key == key {
		return false
	}
	n := node{Key: key, Level: level}
	for lv := 0; lv < level; lv++ {
		n.Next[lv] = preds[lv].GetRaw().Next[lv]
	}
	nv := core.NewTVar(l.sys, nodeCodec, n)
	for lv := 0; lv < level; lv++ {
		p := preds[lv].GetRaw()
		p.Next[lv] = nv.Addr()
		preds[lv].SetRaw(p)
	}
	return true
}

// RawKeys returns the bottom-level keys in order (verification).
func (l *List) RawKeys() []uint64 {
	var keys []uint64
	cur := l.head.GetRaw().Next[0]
	for cur != 0 {
		n := l.nodeAt(cur).GetRaw()
		keys = append(keys, n.Key)
		cur = n.Next[0]
	}
	return keys
}

// CheckTowers verifies structural integrity with raw accesses: every level
// is sorted and every tower is reachable at each of its levels. It returns
// the bottom-level size.
func (l *List) CheckTowers() (int, error) {
	for lv := 0; lv < MaxLevel; lv++ {
		var prev uint64
		cur := l.head.GetRaw().Next[lv]
		for cur != 0 {
			n := l.nodeAt(cur).GetRaw()
			if n.Key <= prev {
				return 0, errUnsorted(lv, prev, n.Key)
			}
			if n.Level <= lv {
				return 0, errLowTower(lv, n.Key)
			}
			prev = n.Key
			cur = n.Next[lv]
		}
	}
	return len(l.RawKeys()), nil
}

func errUnsorted(lv int, prev, key uint64) error {
	return fmt.Errorf("skiplist: level %d unsorted: %d after %d", lv, key, prev)
}

func errLowTower(lv int, key uint64) error {
	return fmt.Errorf("skiplist: node %d linked above its level at %d", key, lv)
}

// locate returns the predecessors at every level and the candidate node
// (the bottom-level successor of preds[0]).
func (l *List) locate(tx *core.Tx, rt *core.Runtime, key uint64) (preds [MaxLevel]mem.Addr, cand mem.Addr, candKey uint64) {
	cur := l.head.Addr()
	curObj := l.head.Get(tx)
	for lv := MaxLevel - 1; lv >= 0; lv-- {
		for {
			next := curObj.Next[lv]
			if next == 0 {
				break
			}
			rt.Compute(PerNodeCompute)
			nextObj := l.nodeAt(next).Get(tx)
			if nextObj.Key >= key {
				break
			}
			cur, curObj = next, nextObj
		}
		preds[lv] = cur
	}
	cand = curObj.Next[0]
	if cand != 0 {
		candKey = l.nodeAt(cand).Get(tx).Key
	}
	return preds, cand, candKey
}

// Contains reports whether key is present (transactional).
func (l *List) Contains(rt *core.Runtime, key uint64) bool {
	var found bool
	rt.Run(func(tx *core.Tx) {
		_, cand, candKey := l.locate(tx, rt, key)
		found = cand != 0 && candKey == key
	})
	return found
}

// Add inserts key with a deterministic random tower height; false if
// already present.
func (l *List) Add(rt *core.Runtime, key uint64) bool {
	level := randomLevel(rt.Rand())
	var added bool
	rt.Run(func(tx *core.Tx) {
		added = false
		preds, cand, candKey := l.locate(tx, rt, key)
		if cand != 0 && candKey == key {
			return
		}
		nv := core.NewTVarNear(l.sys, nodeCodec, rt.Core(), node{})
		obj := node{Key: key, Level: level}
		for lv := 0; lv < level; lv++ {
			obj.Next[lv] = l.nodeAt(preds[lv]).Get(tx).Next[lv] // tx cache
		}
		nv.Set(tx, obj)
		for lv := 0; lv < level; lv++ {
			pv := l.nodeAt(preds[lv])
			upd := pv.Get(tx)
			upd.Next[lv] = nv.Addr()
			pv.Set(tx, upd)
		}
		added = true
	})
	return added
}

// Remove deletes key; false if absent.
func (l *List) Remove(rt *core.Runtime, key uint64) bool {
	var removed bool
	rt.Run(func(tx *core.Tx) {
		removed = false
		preds, cand, candKey := l.locate(tx, rt, key)
		if cand == 0 || candKey != key {
			return
		}
		victim := l.nodeAt(cand).Get(tx)
		for lv := 0; lv < victim.Level; lv++ {
			pv := l.nodeAt(preds[lv])
			upd := pv.Get(tx)
			if upd.Next[lv] != cand {
				continue // taller predecessor bypasses the victim here
			}
			upd.Next[lv] = victim.Next[lv]
			pv.Set(tx, upd)
		}
		removed = true
	})
	return removed
}

// Workload is the synchrobench mix.
type Workload struct {
	UpdatePct int
	KeyRange  uint64
}

// Worker returns a worker loop for the workload.
func (l *List) Worker(w Workload) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			key := r.Uint64()%w.KeyRange + 1
			if r.Intn(100) < w.UpdatePct {
				if r.Intn(2) == 0 {
					l.Add(rt, key)
				} else {
					l.Remove(rt, key)
				}
			} else {
				l.Contains(rt, key)
			}
			rt.AddOps(1)
		}
	}
}
