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
// Lock identity is the pair (core, txID): releases and revocations only
// remove entries whose identity matches, so a stale release from an aborted
// attempt can never disturb a lock legitimately held by a newer transaction.
package dslock

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/mem"
)

// holder is what the table keeps per granted lock: the identity a release
// or revocation must match (core, attempt) and the priority the contention
// manager weighs. cm.Meta's Offset is not kept — ArrivalPrio has already
// folded it into Prio when the request reached the node.
type holder struct {
	TxID uint64
	Prio int64
	Core int32
}

func hold(m cm.Meta) holder { return holder{TxID: m.TxID, Prio: m.Prio, Core: int32(m.Core)} }

func (h holder) meta() cm.Meta { return cm.Meta{Core: int(h.Core), TxID: h.TxID, Prio: h.Prio} }

func (h holder) is(core int, txID uint64) bool { return int(h.Core) == core && h.TxID == txID }

// entry is the lock state of one address. Entries are recycled through the
// table's freelist on the release hot path, so the writer lives inline.
type entry struct {
	writer  holder
	written bool     // writer is set
	readers []holder // at most one per core
}

func (e *entry) empty() bool { return !e.written && len(e.readers) == 0 }

// addReader appends h, growing the reader capacity by doubling up to 16 and
// by 8 after that: a recycled entry keeps its capacity, so the growth step
// bounds what the freelist retains after a burst of readers.
func (e *entry) addReader(h holder) {
	if n := len(e.readers); n == cap(e.readers) && n >= 16 {
		e.readers = append(make([]holder, 0, n+8), e.readers...)
	}
	e.readers = append(e.readers, h)
}

// Table is the lock table of one DTM node.
type Table struct {
	locks map[mem.Addr]*entry
	// free holds recycled entries (empty, reader capacity retained): lock
	// tables drain back to empty after every transaction, so without reuse
	// each acquire/release cycle would allocate a fresh entry.
	free []*entry
	// conf is the scratch behind every ReadConflict/WriteConflict result.
	conf Conflict

	// Stats.
	Grants, Conflicts uint64
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{locks: make(map[mem.Addr]*entry)}
}

// Size returns the number of addresses with at least one lock held.
func (t *Table) Size() int { return len(t.locks) }

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
	if e == nil || !e.written || int(e.writer.Core) == req.Core {
		return nil
	}
	t.conf = Conflict{cm.RAW, append(t.conf.Enemies[:0], e.writer.meta())}
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
	if e.written && int(e.writer.Core) != req.Core {
		t.conf = Conflict{cm.WAW, append(t.conf.Enemies[:0], e.writer.meta())}
		return &t.conf
	}
	enemies := t.conf.Enemies[:0]
	for _, r := range e.readers {
		if int(r.Core) != req.Core {
			enemies = append(enemies, r.meta())
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
	h := hold(m)
	for i := range e.readers {
		if e.readers[i].Core == h.Core {
			e.readers[i] = h
			return
		}
	}
	e.addReader(h)
}

// SetWriter records a granted write lock. It panics if a different core
// still holds the write lock — the service must resolve conflicts first.
func (t *Table) SetWriter(addr mem.Addr, m cm.Meta) {
	t.Grants++
	e := t.ensure(addr)
	if e.written && int(e.writer.Core) != m.Core {
		panic(fmt.Sprintf("dslock: SetWriter(%#x) over foreign writer core %d", uint64(addr), e.writer.Core))
	}
	e.writer, e.written = hold(m), true
}

// ReleaseRead removes (core, txID)'s read lock on addr. It reports whether
// an entry was removed; stale releases are harmless no-ops.
func (t *Table) ReleaseRead(addr mem.Addr, core int, txID uint64) bool {
	e := t.locks[addr]
	if e == nil {
		return false
	}
	for i := range e.readers {
		if e.readers[i].is(core, txID) {
			e.readers = append(e.readers[:i], e.readers[i+1:]...)
			t.gc(addr, e)
			return true
		}
	}
	return false
}

// ReleaseWrite removes (core, txID)'s write lock on addr.
func (t *Table) ReleaseWrite(addr mem.Addr, core int, txID uint64) bool {
	e := t.locks[addr]
	if e == nil || !e.written || !e.writer.is(core, txID) {
		return false
	}
	e.written = false
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
	if e.written && e.writer.is(core, txID) {
		e.written = false
		removed = true
	}
	for i := 0; i < len(e.readers); {
		if e.readers[i].is(core, txID) {
			e.readers = append(e.readers[:i], e.readers[i+1:]...)
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
		seen := make(map[int32]bool)
		for _, r := range e.readers {
			if seen[r.Core] {
				return fmt.Errorf("duplicate reader core %d at %#x", r.Core, uint64(addr))
			}
			seen[r.Core] = true
		}
		if e.written {
			for _, r := range e.readers {
				if r.Core != e.writer.Core {
					return fmt.Errorf("foreign reader core %d coexists with writer core %d at %#x",
						r.Core, e.writer.Core, uint64(addr))
				}
			}
		}
	}
	return nil
}
