package dslock

import (
	"testing"
	"testing/quick"

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

func TestRevokeLeavesOthersIntact(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 14
	tab.AddReader(a, meta(1, 5))
	tab.AddReader(a, meta(2, 6))
	tab.Revoke(a, 1, 5)
	rs := tab.ReadersOf(a)
	if len(rs) != 1 || rs[0].Core != 2 {
		t.Fatalf("readers after revoke = %+v", rs)
	}
}

func TestAddReaderReplacesSameCore(t *testing.T) {
	tab := NewTable()
	const a mem.Addr = 15
	tab.AddReader(a, meta(1, 5))
	tab.AddReader(a, cm.Meta{Core: 1, TxID: 6})
	rs := tab.ReadersOf(a)
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

func TestWriterOf(t *testing.T) {
	tab := NewTable()
	if _, ok := tab.WriterOf(3); ok {
		t.Fatal("writer on empty table")
	}
	tab.SetWriter(3, meta(2, 9))
	w, ok := tab.WriterOf(3)
	if !ok || w.Core != 2 || w.TxID != 9 {
		t.Fatalf("WriterOf = %+v, %v", w, ok)
	}
}

func TestReadersOfReturnsCopy(t *testing.T) {
	tab := NewTable()
	tab.AddReader(1, meta(0, 1))
	rs := tab.ReadersOf(1)
	rs[0].Core = 99
	if tab.ReadersOf(1)[0].Core != 0 {
		t.Fatal("ReadersOf exposed internal state")
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
			if err := tab.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
