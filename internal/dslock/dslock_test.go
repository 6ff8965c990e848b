package dslock

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cm"
	"repro/internal/mem"
)

func meta(core int, txID uint64) cm.Meta { return cm.Meta{Core: core, TxID: txID, Prio: int64(core)} }

func TestReadLockGrantAndRAWConflict(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 100
	if c := tab.ReadConflict(a, meta(0, 1)); c != nil {
		t.Fatalf("unexpected conflict on free address: %+v", c)
	}
	tab.AddReader(a, meta(0, 1))
	// A second reader is always fine.
	if c := tab.ReadConflict(a, meta(1, 2)); c != nil {
		t.Fatalf("reader vs reader conflict: %+v", c)
	}
	tab.AddReader(a, meta(1, 2))
	// A writer makes subsequent foreign reads RAW conflicts.
	tab.SetWriter(a, meta(1, 2))
	c := tab.ReadConflict(a, meta(2, 3))
	if c == nil || c.Kind != cm.RAW || len(c.Enemies) != 1 || c.Enemies[0].Core != 1 {
		t.Fatalf("want RAW vs core 1, got %+v", c)
	}
	// The writer itself may still read (no self-conflict).
	if c := tab.ReadConflict(a, meta(1, 2)); c != nil {
		t.Fatalf("self RAW conflict: %+v", c)
	}
}

func TestWriteLockWAWConflict(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 7
	tab.SetWriter(a, meta(0, 1))
	c := tab.WriteConflict(a, meta(1, 2))
	if c == nil || c.Kind != cm.WAW || c.Enemies[0].Core != 0 {
		t.Fatalf("want WAW vs core 0, got %+v", c)
	}
	// Same core re-locking (e.g. upgrade within commit) is fine.
	if c := tab.WriteConflict(a, meta(0, 1)); c != nil {
		t.Fatalf("self WAW conflict: %+v", c)
	}
}

func TestWriteLockWARConflict(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 8
	tab.AddReader(a, meta(1, 10))
	tab.AddReader(a, meta(2, 20))
	tab.AddReader(a, meta(3, 30))
	c := tab.WriteConflict(a, meta(1, 10)) // core 1 upgrading its own read
	if c == nil || c.Kind != cm.WAR {
		t.Fatalf("want WAR, got %+v", c)
	}
	if len(c.Enemies) != 2 {
		t.Fatalf("enemies = %+v, want cores 2 and 3 only", c.Enemies)
	}
	for _, e := range c.Enemies {
		if e.Core == 1 {
			t.Fatal("requester listed among its own enemies")
		}
	}
	// With only its own read lock present, the upgrade succeeds.
	tab2 := NewTable()
	tab2.AddReader(a, meta(1, 10))
	if c := tab2.WriteConflict(a, meta(1, 10)); c != nil {
		t.Fatalf("self-upgrade conflict: %+v", c)
	}
}

// TestConflictScanAllocFree pins the table-owned scratch behind the conflict
// results: a WAR scan over a populated reader set allocates nothing, and its
// Enemies are a copy — revoking them while iterating (what the DTM node's
// abortEnemies does) neither skips nor repeats an enemy.
func TestConflictScanAllocFree(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 7
	for c := 0; c < 16; c++ {
		tab.AddReader(a, meta(c, uint64(c)))
	}
	req := meta(99, 100)
	if n := testing.AllocsPerRun(100, func() {
		if c := tab.WriteConflict(a, req); c == nil || len(c.Enemies) != 16 {
			t.Fatalf("want 16 WAR enemies, got %+v", c)
		}
	}); n != 0 {
		t.Errorf("WriteConflict allocates %.1f times per scan, want 0", n)
	}
	revoked := 0
	for _, e := range tab.WriteConflict(a, req).Enemies {
		if tab.Revoke(a, e.Core, e.TxID) {
			revoked++
		}
	}
	if revoked != 16 || tab.WriteConflict(a, req) != nil {
		t.Fatalf("revoked %d of 16 enemies while iterating the scan result", revoked)
	}
}

func TestWAWCheckedBeforeWAR(t *testing.T) {
	// Algorithm 2 checks the writer first, then the readers.
	tab := NewTable()
	const a mem.Addr = 9
	tab.SetWriter(a, meta(0, 1))
	tab.AddReader(a, meta(0, 1)) // writer's own read entry
	c := tab.WriteConflict(a, meta(5, 2))
	if c == nil || c.Kind != cm.WAW {
		t.Fatalf("want WAW first, got %+v", c)
	}
}

func TestReleaseReadOnlyMatching(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 11
	tab.AddReader(a, meta(1, 100))
	if tab.ReleaseRead(a, 1, 999) {
		t.Fatal("release with wrong txID succeeded")
	}
	if tab.ReleaseRead(a, 2, 100) {
		t.Fatal("release with wrong core succeeded")
	}
	if !tab.ReleaseRead(a, 1, 100) {
		t.Fatal("matching release failed")
	}
	if tab.ReleaseRead(a, 1, 100) {
		t.Fatal("double release reported success")
	}
	if tab.Size() != 0 {
		t.Fatalf("size = %d after full release", tab.Size())
	}
}

func TestReleaseWriteOnlyMatching(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 12
	tab.SetWriter(a, meta(3, 7))
	if tab.ReleaseWrite(a, 3, 8) || tab.ReleaseWrite(a, 4, 7) {
		t.Fatal("mismatched write release succeeded")
	}
	if !tab.ReleaseWrite(a, 3, 7) {
		t.Fatal("matching write release failed")
	}
	if tab.Size() != 0 {
		t.Fatal("entry not garbage-collected")
	}
}

func TestRevokeRemovesBothKinds(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 13
	tab.AddReader(a, meta(1, 5))
	tab.SetWriter(a, meta(1, 5))
	tab.AddReader(a, meta(1, 5)) // replaced, still one entry
	if !tab.Revoke(a, 1, 5) {
		t.Fatal("revoke found nothing")
	}
	if tab.Size() != 0 {
		t.Fatal("revoke left residue")
	}
	if tab.Revoke(a, 1, 5) {
		t.Fatal("second revoke reported removal")
	}
}

// outsider is a requester on no core: every holder is foreign to it, so a
// conflict check by it lists the whole writer or reader set.
var outsider = cm.Meta{Core: -1}

// readersOf lists addr's readers, through the WAR scan of a write request.
func readersOf(tab *Table, a mem.Addr) []cm.Meta {
	if c := tab.WriteConflict(a, outsider); c != nil && c.Kind == cm.WAR {
		return c.Enemies
	}
	return nil
}

func TestRevokeLeavesOthersIntact(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 14
	tab.AddReader(a, meta(1, 5))
	tab.AddReader(a, meta(2, 6))
	tab.Revoke(a, 1, 5)
	rs := readersOf(tab, a)
	if len(rs) != 1 || rs[0].Core != 2 {
		t.Fatalf("readers after revoke = %+v", rs)
	}
}

func TestAddReaderReplacesSameCore(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 15
	tab.AddReader(a, meta(1, 5))
	tab.AddReader(a, cm.Meta{Core: 1, TxID: 6})
	rs := readersOf(tab, a)
	if len(rs) != 1 || rs[0].TxID != 6 {
		t.Fatalf("readers = %+v, want single entry with TxID 6", rs)
	}
}

func TestSetWriterOverForeignWriterPanics(t *testing.T) {
	tab := NewTable()
	tab.SetWriter(1, meta(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on foreign overwrite")
		}
	}()
	tab.SetWriter(1, meta(1, 2))
}

// TestRAWConflictReportsWriter: a foreign read meets the writer with the
// identity and priority it was granted with.
func TestRAWConflictReportsWriter(t *testing.T) {
	tab := NewTable()
	if c := tab.ReadConflict(3, outsider); c != nil {
		t.Fatalf("writer on empty table: %+v", c)
	}
	tab.SetWriter(3, cm.Meta{Core: 2, TxID: 9, Prio: -4, Offset: 77})
	c := tab.ReadConflict(3, outsider)
	if c == nil || len(c.Enemies) != 1 || c.Enemies[0] != (cm.Meta{Core: 2, TxID: 9, Prio: -4}) {
		t.Fatalf("RAW conflict = %+v, want writer core 2 tx 9 prio -4", c)
	}
}

// TestConflictEnemiesAreACopy: writing to a conflict's Enemies does not
// reach the table.
func TestConflictEnemiesAreACopy(t *testing.T) {
	tab := NewTable()
	tab.AddReader(1, meta(0, 1))
	readersOf(tab, 1)[0].Core = 99
	if rs := readersOf(tab, 1); rs[0].Core != 0 {
		t.Fatal("Enemies exposed internal state")
	}
}

func TestGrantsAndSizeAccounting(t *testing.T) {
	tab := NewTable()
	tab.AddReader(1, meta(0, 1))
	tab.AddReader(2, meta(0, 1))
	tab.SetWriter(3, meta(0, 1))
	if tab.Grants != 3 {
		t.Fatalf("Grants = %d", tab.Grants)
	}
	if tab.Size() != 3 {
		t.Fatalf("Size = %d", tab.Size())
	}
}

// TestInvariantsUnderRandomOps drives the table with random operation
// sequences that mimic the DTM service discipline (a write lock is only set
// after foreign holders are revoked) and checks the structural invariants
// after every step.
func TestInvariantsUnderRandomOps(t *testing.T) {
	type op struct {
		Kind byte
		Addr uint8
		Core uint8
		TxID uint8
	}
	if err := quick.Check(func(ops []op) bool {
		tab := NewTable()
		for _, o := range ops {
			addr := mem.Addr(o.Addr % 16)
			m := cm.Meta{Core: int(o.Core % 6), TxID: uint64(o.TxID % 8)}
			switch o.Kind % 5 {
			case 0: // read-lock attempt
				if tab.ReadConflict(addr, m) == nil {
					tab.AddReader(addr, m)
				}
			case 1: // write-lock attempt with forced revocation of enemies
				if c := tab.WriteConflict(addr, m); c != nil {
					for _, e := range c.Enemies {
						tab.Revoke(addr, e.Core, e.TxID)
					}
				}
				if tab.WriteConflict(addr, m) == nil {
					tab.SetWriter(addr, m)
				}
			case 2:
				tab.ReleaseRead(addr, m.Core, m.TxID)
			case 3:
				tab.ReleaseWrite(addr, m.Core, m.TxID)
			case 4:
				tab.Revoke(addr, m.Core, m.TxID)
			}
			if err := checkTable(tab); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTable drives a Table with the DTM node's discipline (a lock is set
// only once its conflict check comes back empty, or after revoking every
// enemy it lists) against a naive model: one writer pointer and an ordered
// reader list per address, each lock naming a model record that a grant
// reuses only while it is its core's newest and has the grant's attempt and
// priority. After every op it compares grants, conflict kinds and the
// enemies' Core/TxID/Prio in order, the release and revoke verdicts, Size,
// Grants and the live record count, and runs checkTable. Each op is four
// bytes: the op and the address, the core, the attempt, the priority.
func FuzzTable(f *testing.F) {
	var crowd []byte
	for c := byte(0); c < 24; c++ {
		crowd = append(crowd, 0, c, 1, c) // 24 cores read-lock address 0
	}
	crowd = append(crowd, 1, 30, 2, 200, 5, 30, 2, 200, 2, 5, 1, 5, 0, 5, 3, 9, 3, 30, 2, 0)
	f.Add(crowd)
	f.Add([]byte{1, 1, 1, 1, 0, 2, 2, 2, 1, 2, 2, 2, 5, 2, 2, 2, 4, 2, 2, 2, 0, 1, 1, 1, 3, 1, 1, 1})
	// The OffsetGreedy shape: one attempt (core 7, attempt 1) holds every
	// address, each granted at its own priority, so no record is shared;
	// then a foreign reader, a revoking writer, a release, a revocation and
	// a re-read at an earlier, still held priority, which gets a record of
	// its own.
	f.Add([]byte{0, 7, 1, 10, 8, 7, 1, 20, 16, 7, 1, 30, 24, 7, 1, 40, 1, 7, 1, 50, 8, 3, 2, 60,
		13, 7, 1, 70, 10, 7, 1, 0, 20, 7, 1, 0, 3, 7, 1, 0, 24, 7, 1, 10, 25, 3, 2, 60})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type record struct {
			txID uint64
			prio int64
			refs int
		}
		type lock struct {
			cm.Meta
			rec *record
		}
		type slot struct {
			writer  *lock
			readers []lock
		}
		model := map[mem.Addr]*slot{}
		newest := map[int]*record{}
		grant := func(m cm.Meta) lock {
			r := newest[m.Core]
			if r == nil || r.refs == 0 || r.txID != m.TxID || r.prio != m.Prio {
				r = &record{txID: m.TxID, prio: m.Prio}
				newest[m.Core] = r
			}
			r.refs++
			return lock{m, r}
		}
		at := func(a mem.Addr) *slot {
			if model[a] == nil {
				model[a] = &slot{}
			}
			return model[a]
		}
		// conflict is the model's answer to a read (write false) or write
		// request, in Algorithm 1 and 2's order.
		conflict := func(a mem.Addr, req cm.Meta, write bool) (cm.Kind, []cm.Meta) {
			s := at(a)
			if s.writer != nil && s.writer.Core != req.Core {
				if write {
					return cm.WAW, []cm.Meta{s.writer.Meta}
				}
				return cm.RAW, []cm.Meta{s.writer.Meta}
			}
			var enemies []cm.Meta
			if write {
				for _, r := range s.readers {
					if r.Core != req.Core {
						enemies = append(enemies, r.Meta)
					}
				}
			}
			return cm.WAR, enemies
		}
		same := func(c *Conflict, kind cm.Kind, want []cm.Meta) bool {
			if c == nil || len(want) == 0 {
				return c == nil && len(want) == 0
			}
			if c.Kind != kind || len(c.Enemies) != len(want) {
				return false
			}
			for i, e := range c.Enemies {
				if w := want[i]; e.Core != w.Core || e.TxID != w.TxID || e.Prio != w.Prio {
					return false
				}
			}
			return true
		}
		revoke := func(a mem.Addr, core int, txID uint64) bool {
			s, removed := at(a), false
			if s.writer != nil && s.writer.Core == core && s.writer.TxID == txID {
				s.writer.rec.refs--
				s.writer, removed = nil, true
			}
			s.readers = slices.DeleteFunc(s.readers, func(r lock) bool {
				hit := r.Core == core && r.TxID == txID
				if hit {
					r.rec.refs--
				}
				removed = removed || hit
				return hit
			})
			return removed
		}
		tab := NewTable()
		var grants uint64
		for i := 0; i+3 < len(ops); i += 4 {
			op, a := ops[i]&7, mem.Addr(ops[i]>>3&3)
			m := cm.Meta{Core: int(ops[i+1] % 32), TxID: uint64(ops[i+2] % 4), Prio: int64(int8(ops[i+3])), Offset: 5}
			s := at(a)
			switch op {
			case 0: // read-lock request
				kind, want := conflict(a, m, false)
				if c := tab.ReadConflict(a, m); !same(c, kind, want) {
					t.Fatalf("op %d: ReadConflict(%d, %+v) = %+v, model %v %+v", i/4, a, m, c, kind, want)
				}
				if want == nil {
					tab.AddReader(a, m)
					grants++
					l := grant(m)
					if j := slices.IndexFunc(s.readers, func(r lock) bool { return r.Core == m.Core }); j >= 0 {
						s.readers[j].rec.refs--
						s.readers[j] = l
					} else {
						s.readers = append(s.readers, l)
					}
				}
			case 1, 5: // write-lock request; 5 revokes every enemy first
				// Like the DTM node, 5 re-checks after each revocation round:
				// revoking a WAW writer can uncover its own core's older
				// read locks as WAR enemies.
				var want []cm.Meta
				for round := 0; ; round++ {
					var kind cm.Kind
					kind, want = conflict(a, m, true)
					c := tab.WriteConflict(a, m)
					if !same(c, kind, want) {
						t.Fatalf("op %d: WriteConflict(%d, %+v) = %+v, model %v %+v", i/4, a, m, c, kind, want)
					}
					if want == nil || op != 5 {
						break
					}
					if round == 2 {
						t.Fatalf("op %d: conflict %+v left after two revocation rounds", i/4, c)
					}
					for _, e := range c.Enemies {
						if got, wantOK := tab.Revoke(a, e.Core, e.TxID), revoke(a, e.Core, e.TxID); got != wantOK {
							t.Fatalf("op %d: Revoke of enemy %+v = %v, model %v", i/4, e, got, wantOK)
						}
					}
				}
				if want == nil {
					tab.SetWriter(a, m)
					grants++
					w := grant(m)
					if s.writer != nil {
						s.writer.rec.refs--
					}
					s.writer = &w
				}
			case 2:
				j := slices.IndexFunc(s.readers, func(r lock) bool { return r.Core == m.Core && r.TxID == m.TxID })
				if got := tab.ReleaseRead(a, m.Core, m.TxID); got != (j >= 0) {
					t.Fatalf("op %d: ReleaseRead(%d, %d, %d) = %v, model %v", i/4, a, m.Core, m.TxID, got, j >= 0)
				}
				if j >= 0 {
					s.readers[j].rec.refs--
					s.readers = slices.Delete(s.readers, j, j+1)
				}
			case 3:
				held := s.writer != nil && s.writer.Core == m.Core && s.writer.TxID == m.TxID
				if got := tab.ReleaseWrite(a, m.Core, m.TxID); got != held {
					t.Fatalf("op %d: ReleaseWrite(%d, %d, %d) = %v, model %v", i/4, a, m.Core, m.TxID, got, held)
				}
				if held {
					s.writer.rec.refs--
					s.writer = nil
				}
			default:
				if got, want := tab.Revoke(a, m.Core, m.TxID), revoke(a, m.Core, m.TxID); got != want {
					t.Fatalf("op %d: Revoke(%d, %d, %d) = %v, model %v", i/4, a, m.Core, m.TxID, got, want)
				}
			}
			live := 0
			recs := map[*record]bool{}
			for _, s := range model {
				if s.writer != nil || len(s.readers) > 0 {
					live++
				}
				if s.writer != nil {
					recs[s.writer.rec] = true
				}
				for _, r := range s.readers {
					recs[r.rec] = true
				}
			}
			if tab.Size() != live || tab.Grants != grants {
				t.Fatalf("op %d: Size %d, Grants %d; model %d, %d", i/4, tab.Size(), tab.Grants, live, grants)
			}
			if n := liveRecords(tab); n != len(recs) {
				t.Fatalf("op %d: %d live records, model %d", i/4, n, len(recs))
			}
			if err := checkTable(tab); err != nil {
				t.Fatalf("op %d: %v", i/4, err)
			}
		}
	})
}

// liveRecords counts the table's live identity records.
func liveRecords(t *Table) int { return len(t.recs) - 1 - len(t.freeRecs) }

// distinctHeld counts the distinct (core, attempt, priority) identities the
// table's locks name.
func distinctHeld(t *Table) int {
	held := map[record]bool{}
	for _, e := range t.locks {
		for _, id := range append([]int32{e.writer}, e.readers...) {
			if id != 0 {
				r := t.recs[id]
				r.refs = 0
				held[r] = true
			}
		}
	}
	return len(held)
}

// checkTable runs CheckInvariants and then checks the records: each is
// named by as many locks as its count says, each core's newest is live and
// its own, and every dead slot is on the free list.
func checkTable(t *Table) error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	refs := make([]int32, len(t.recs))
	for _, e := range t.locks {
		refs[e.writer]++
		for _, r := range e.readers {
			refs[r]++
		}
	}
	for core, id := range t.last {
		if r := t.recs[id]; id != 0 && (r.refs == 0 || int(r.core) != core) {
			return fmt.Errorf("core %d's newest record %d is dead or core %d's", core, id, r.core)
		}
	}
	dead := 0
	for id := 1; id < len(t.recs); id++ {
		if r := t.recs[id]; r.refs != refs[id] {
			return fmt.Errorf("record %d counts %d locks, %d name it", id, r.refs, refs[id])
		}
		if refs[id] == 0 {
			dead++
		}
	}
	if dead != len(t.freeRecs) {
		return fmt.Errorf("%d dead record slots, %d on the free list", dead, len(t.freeRecs))
	}
	return nil
}

// TestRecycledEntryFootprint: after 24 readers hold 1,024 addresses at once
// and let go, every recycled entry keeps at most 128 B of reader storage —
// 24 record references grown by plain append — and the one record each
// reader's attempt was interned as is free again.
func TestRecycledEntryFootprint(t *testing.T) {
	tab := NewTable()
	const addrs, readers = 1024, 24
	for c := 0; c < readers; c++ {
		for a := mem.Addr(0); a < addrs; a++ {
			tab.AddReader(a, meta(c, 1))
		}
	}
	if n := liveRecords(tab); n != readers {
		t.Fatalf("%d live records for %d attempts", n, readers)
	}
	for c := 0; c < readers; c++ {
		for a := mem.Addr(0); a < addrs; a++ {
			tab.ReleaseRead(a, c, 1)
		}
	}
	if len(tab.free) != addrs {
		t.Fatalf("%d recycled entries, want %d", len(tab.free), addrs)
	}
	for _, e := range tab.free {
		if b := cap(e.readers) * int(unsafe.Sizeof(e.readers[0])); b > 128 {
			t.Fatalf("a recycled entry keeps %d B of reader storage, want <= 128", b)
		}
	}
	if n := liveRecords(tab); n != 0 {
		t.Fatalf("%d live records after every release", n)
	}
}

// TestStaleReleaseKeepsNewerAttempt is the stale-owner class on an interned
// table: attempt 1 of a core reads A, attempt 2 of the same core
// re-reads A (replacing the entry), and attempt 1's late release must find
// nothing and leave attempt 2 holding A under its own record.
func TestStaleReleaseKeepsNewerAttempt(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 21
	tab.AddReader(a, meta(4, 1))
	tab.AddReader(a, meta(4, 2))
	if tab.ReleaseRead(a, 4, 1) {
		t.Fatal("a stale release of attempt 1 removed a lock")
	}
	if rs := readersOf(tab, a); len(rs) != 1 || rs[0].Core != 4 || rs[0].TxID != 2 {
		t.Fatalf("readers after the stale release = %+v, want core 4 attempt 2", rs)
	}
	if n := liveRecords(tab); n != 1 {
		t.Fatalf("%d live records, want attempt 2's only", n)
	}
	if err := checkTable(tab); err != nil {
		t.Fatal(err)
	}
	if !tab.ReleaseRead(a, 4, 2) || tab.Size() != 0 || liveRecords(tab) != 0 {
		t.Fatal("attempt 2's release did not drain the table")
	}
}

// TestAttemptRecordsDrain: 10,000 attempts over 8 cores, one attempt per
// core at a time, take read and write locks over 64 addresses. Each attempt
// either releases everything it holds or is revoked by a writer and then
// sends its release burst, whose releases of the revoked locks are stale.
// Each attempt grants at one priority, so interning is exact throughout:
// one live record per distinct held identity. Afterwards no record is
// live, and the slab never grew past the peak number of attempts alive at
// once.
func TestAttemptRecordsDrain(t *testing.T) {
	const cores, attempts, addrs = 8, 10_000, 64
	type attempt struct {
		txID  uint64
		reads []mem.Addr
		write []mem.Addr
	}
	rng := rand.New(rand.NewPCG(1, 2))
	tab := NewTable()
	cur := make([]*attempt, cores)
	started, alive, peak := 0, 0, 0
	finish := func(c int) {
		for _, a := range cur[c].reads {
			tab.ReleaseRead(a, c, cur[c].txID)
		}
		for _, a := range cur[c].write {
			tab.ReleaseWrite(a, c, cur[c].txID)
		}
		cur[c] = nil
		alive--
	}
	for started < attempts || alive > 0 {
		c := rng.IntN(cores)
		at := cur[c]
		if at == nil {
			if started < attempts {
				started++
				cur[c] = &attempt{txID: uint64(started)}
				alive++
				peak = max(peak, alive)
			}
			continue
		}
		addr := mem.Addr(rng.IntN(addrs))
		m := cm.Meta{Core: c, TxID: at.txID, Prio: int64(at.txID)}
		switch rng.IntN(8) {
		case 0: // commit or abort: the release burst
			finish(c)
		case 1: // write lock, revoking every enemy
			for {
				conf := tab.WriteConflict(addr, m)
				if conf == nil {
					break
				}
				for _, e := range conf.Enemies {
					tab.Revoke(addr, e.Core, e.TxID)
				}
			}
			tab.SetWriter(addr, m)
			at.write = append(at.write, addr)
		default: // read lock, unless a foreign writer holds it
			if tab.ReadConflict(addr, m) == nil {
				tab.AddReader(addr, m)
				at.reads = append(at.reads, addr)
			}
		}
		if err := checkTable(tab); err != nil {
			t.Fatal(err)
		}
		if n, d := liveRecords(tab), distinctHeld(tab); n != d {
			t.Fatalf("%d live records for %d distinct held identities", n, d)
		}
	}
	if n := liveRecords(tab); n != 0 || tab.Size() != 0 {
		t.Fatalf("%d live records, %d locked addresses after every attempt ended", n, tab.Size())
	}
	if slab := len(tab.recs) - 1; slab > peak {
		t.Fatalf("record slab grew to %d for at most %d attempts alive at once", slab, peak)
	}
}
