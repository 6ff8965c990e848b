// Package dslock implements the DS-Lock component at the heart of TM2C's
// DTM service (§3.2): a table of multiple-readers/single-writer *revocable*
// locks over shared-memory words.
//
// Each DTM node owns one Table covering the slice of the address space that
// hashes to it. The table is a pure data structure — message passing,
// contention-manager invocation and remote revocation are driven by the DTM
// service loop in internal/core, which keeps this package directly
// unit-testable.
//
// Lock identity is an interned (core, txID) record: releases and revocations
// only remove locks whose record matches, so a stale release from an aborted
// attempt can never disturb a lock legitimately held by a newer transaction.
// A lock names its holders by 4-byte record index. A grant reuses its core's
// newest record if that has the grant's attempt and priority, so a scan's
// 1,024 read locks on a node share one record, and starts a new one
// otherwise: O(1) per grant, however many locks the core holds. That is
// exact under every policy but OffsetGreedy, whose per-grant priorities may
// give a repeated priority a second 24 B record.
package dslock

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/mem"
)

// record is one interned lock identity. cm.Meta's Offset is not kept —
// ArrivalPrio has already folded it into Prio when the request reached the
// node.
type record struct {
	txID uint64
	prio int64
	core int32
	refs int32 // locks that name it; 0 while on the free list
}

// entry is the lock state of one address: record indices, 0 for none.
// Entries are recycled through the table's freelist on the release hot path.
type entry struct {
	writer  int32
	readers []int32 // at most one per core
}

func (e *entry) empty() bool { return e.writer == 0 && len(e.readers) == 0 }

// Table is the lock table of one DTM node.
type Table struct {
	locks map[mem.Addr]*entry
	// free holds recycled entries (empty, reader capacity retained): lock
	// tables drain back to empty after every transaction, so without reuse
	// each acquire/release cycle would allocate a fresh entry.
	free []*entry
	// recs is the record slab; recs[0] is the unused "none". freeRecs lists
	// the slots whose records were dropped, for reuse.
	recs     []record
	freeRecs []int32
	// last is each core's newest live record, 0 when it is gone: the one a
	// scan's next grant reuses. Cores index it, so they are non-negative.
	last []int32
	// conf is the scratch behind every ReadConflict/WriteConflict result.
	conf Conflict

	// Stats.
	Grants, Conflicts uint64
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{locks: make(map[mem.Addr]*entry), recs: make([]record, 1)}
}

// Size returns the number of addresses with at least one lock held.
func (t *Table) Size() int { return len(t.locks) }

func (t *Table) meta(id int32) cm.Meta {
	r := &t.recs[id]
	return cm.Meta{Core: int(r.core), TxID: r.txID, Prio: r.prio}
}

func (t *Table) coreOf(id int32) int { return int(t.recs[id].core) }

func (t *Table) is(id int32, core int, txID uint64) bool {
	r := &t.recs[id]
	return int(r.core) == core && r.txID == txID
}

// intern returns a record for m with one more reference. That is m's core's
// newest record when it has m's attempt and priority; otherwise it is a new
// record, which becomes the core's newest.
func (t *Table) intern(m cm.Meta) int32 {
	if m.Core >= len(t.last) {
		t.last = append(t.last, make([]int32, m.Core+1-len(t.last))...)
	}
	if id := t.last[m.Core]; id != 0 {
		if r := &t.recs[id]; r.txID == m.TxID && r.prio == m.Prio {
			r.refs++
			return id
		}
	}
	var id int32
	if n := len(t.freeRecs); n > 0 {
		id, t.freeRecs = t.freeRecs[n-1], t.freeRecs[:n-1]
	} else {
		id = int32(len(t.recs))
		t.recs = append(t.recs, record{})
	}
	t.recs[id] = record{txID: m.TxID, prio: m.Prio, core: int32(m.Core), refs: 1}
	t.last[m.Core] = id
	return id
}

// unref drops one reference to record id, freeing it with the last.
func (t *Table) unref(id int32) {
	r := &t.recs[id]
	if r.refs--; r.refs > 0 {
		return
	}
	if t.last[r.core] == id {
		t.last[r.core] = 0
	}
	t.freeRecs = append(t.freeRecs, id)
}

// Conflict describes why a request cannot be granted: the conflict kind and
// the metadata of every enemy transaction, for the contention manager.
//
// ReadConflict and WriteConflict return one table-owned Conflict and reuse
// its Enemies: valid only until the next such call on the table. Enemies is
// a copy, so revoking the listed locks while iterating it is safe. Each
// enemy carries the Core, TxID and Prio it was granted with (Offset is 0).
type Conflict struct {
	Kind    cm.Kind
	Enemies []cm.Meta
}

// ReadConflict checks a read-lock request by req against the table. It
// returns nil if the lock can be granted immediately, or the RAW conflict
// with the current writer (Algorithm 1).
func (t *Table) ReadConflict(addr mem.Addr, req cm.Meta) *Conflict {
	e := t.locks[addr]
	if e == nil || e.writer == 0 || t.coreOf(e.writer) == req.Core {
		return nil
	}
	t.conf = Conflict{cm.RAW, append(t.conf.Enemies[:0], t.meta(e.writer))}
	return &t.conf
}

// WriteConflict checks a write-lock request by req. It returns nil if the
// lock can be granted, a WAW conflict if a foreign writer holds the lock, or
// a WAR conflict listing every foreign reader (Algorithm 2).
func (t *Table) WriteConflict(addr mem.Addr, req cm.Meta) *Conflict {
	e := t.locks[addr]
	if e == nil {
		return nil
	}
	if e.writer != 0 && t.coreOf(e.writer) != req.Core {
		t.conf = Conflict{cm.WAW, append(t.conf.Enemies[:0], t.meta(e.writer))}
		return &t.conf
	}
	enemies := t.conf.Enemies[:0]
	for _, r := range e.readers {
		if t.coreOf(r) != req.Core {
			enemies = append(enemies, t.meta(r))
		}
	}
	if len(enemies) > 0 {
		t.conf = Conflict{cm.WAR, enemies}
		return &t.conf
	}
	return nil
}

// AddReader records a granted read lock. A core's previous read entry for
// the same address (e.g. an earlier attempt) is replaced.
func (t *Table) AddReader(addr mem.Addr, m cm.Meta) {
	t.Grants++
	e := t.ensure(addr)
	id := t.intern(m)
	for i, r := range e.readers {
		if t.coreOf(r) == m.Core {
			e.readers[i] = id
			t.unref(r)
			return
		}
	}
	e.readers = append(e.readers, id)
}

// SetWriter records a granted write lock. It panics if a different core
// still holds the write lock — the service must resolve conflicts first.
func (t *Table) SetWriter(addr mem.Addr, m cm.Meta) {
	t.Grants++
	e := t.ensure(addr)
	if e.writer != 0 && t.coreOf(e.writer) != m.Core {
		panic(fmt.Sprintf("dslock: SetWriter(%#x) over foreign writer core %d", uint64(addr), t.coreOf(e.writer)))
	}
	id := t.intern(m)
	if e.writer != 0 {
		t.unref(e.writer)
	}
	e.writer = id
}

// ReleaseRead removes (core, txID)'s read lock on addr. It reports whether
// an entry was removed; stale releases are harmless no-ops.
func (t *Table) ReleaseRead(addr mem.Addr, core int, txID uint64) bool {
	e := t.locks[addr]
	if e == nil {
		return false
	}
	for i, r := range e.readers {
		if t.is(r, core, txID) {
			e.readers = append(e.readers[:i], e.readers[i+1:]...)
			t.unref(r)
			t.gc(addr, e)
			return true
		}
	}
	return false
}

// ReleaseWrite removes (core, txID)'s write lock on addr.
func (t *Table) ReleaseWrite(addr mem.Addr, core int, txID uint64) bool {
	e := t.locks[addr]
	if e == nil || e.writer == 0 || !t.is(e.writer, core, txID) {
		return false
	}
	t.unref(e.writer)
	e.writer = 0
	t.gc(addr, e)
	return true
}

// Revoke removes every lock (read and write) held by (core, txID) on addr.
// The DTM service calls it after the contention manager has aborted the
// enemy transaction. It reports whether anything was removed.
func (t *Table) Revoke(addr mem.Addr, core int, txID uint64) bool {
	e := t.locks[addr]
	if e == nil {
		return false
	}
	removed := false
	if e.writer != 0 && t.is(e.writer, core, txID) {
		t.unref(e.writer)
		e.writer = 0
		removed = true
	}
	for i := 0; i < len(e.readers); {
		if r := e.readers[i]; t.is(r, core, txID) {
			e.readers = append(e.readers[:i], e.readers[i+1:]...)
			t.unref(r)
			removed = true
			continue
		}
		i++
	}
	if removed {
		t.gc(addr, e)
	}
	return removed
}

// ForEach calls fn for every address with at least one live lock, in one
// pass. The DTM service uses it to decide which placement stripes have
// drained and can be handed off to their new owners. Iteration order is
// the map's (nondeterministic); callers must only accumulate
// order-insensitive facts.
func (t *Table) ForEach(fn func(mem.Addr)) {
	for addr := range t.locks {
		fn(addr)
	}
}

func (t *Table) ensure(addr mem.Addr) *entry {
	e := t.locks[addr]
	if e == nil {
		if n := len(t.free); n > 0 {
			e, t.free = t.free[n-1], t.free[:n-1]
		} else {
			e = &entry{}
		}
		t.locks[addr] = e
	}
	return e
}

func (t *Table) gc(addr mem.Addr, e *entry) {
	if e.empty() {
		// empty() guarantees no writer and len(readers) == 0; the reader
		// backing array survives for the next acquire.
		delete(t.locks, addr)
		t.free = append(t.free, e)
	}
}

// CheckInvariants validates the table's structural invariants; tests call it
// after random operation sequences. The invariants are: no empty entries
// linger, at most one reader entry per core per address, and a foreign
// writer never coexists with foreign readers (the WAR resolution either
// aborted the readers or the writer).
func (t *Table) CheckInvariants() error {
	for addr, e := range t.locks {
		if e.empty() {
			return fmt.Errorf("empty entry lingers at %#x", uint64(addr))
		}
		seen := make(map[int]bool)
		for _, r := range e.readers {
			if seen[t.coreOf(r)] {
				return fmt.Errorf("duplicate reader core %d at %#x", t.coreOf(r), uint64(addr))
			}
			seen[t.coreOf(r)] = true
			if e.writer != 0 && t.coreOf(r) != t.coreOf(e.writer) {
				return fmt.Errorf("foreign reader core %d coexists with writer core %d at %#x",
					t.coreOf(r), t.coreOf(e.writer), uint64(addr))
			}
		}
	}
	return nil
}
