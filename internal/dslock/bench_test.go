package dslock

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
)

// BenchmarkReadLockGrant measures the grant/release fast path.
func BenchmarkReadLockGrant(b *testing.B) {
	t := NewTable()
	m := cm.Meta{Core: 1, TxID: 1}
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(i % 1024)
		if t.ReadConflict(addr, m) == nil {
			t.AddReader(addr, m)
		}
		t.ReleaseRead(addr, m.Core, m.TxID)
	}
}

// BenchmarkPerGrantPriorityScan measures the OffsetGreedy shape at its
// worst: one attempt read-locks 1,024 addresses on one node, each grant at
// a priority of its own, then releases them in order. Reported per grant.
func BenchmarkPerGrantPriorityScan(b *testing.B) {
	t := NewTable()
	const addrs = 1024
	for i := 0; i < b.N; i++ {
		for a := mem.Addr(0); a < addrs; a++ {
			t.AddReader(a, cm.Meta{Core: 1, TxID: uint64(i), Prio: int64(a)})
		}
		for a := mem.Addr(0); a < addrs; a++ {
			t.ReleaseRead(a, 1, uint64(i))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*addrs), "ns/grant")
}

// BenchmarkWriteConflictScan measures conflict detection against a
// populated reader set.
func BenchmarkWriteConflictScan(b *testing.B) {
	t := NewTable()
	const addr mem.Addr = 7
	for c := 0; c < 16; c++ {
		t.AddReader(addr, cm.Meta{Core: c, TxID: uint64(c)})
	}
	req := cm.Meta{Core: 99, TxID: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.WriteConflict(addr, req) == nil {
			b.Fatal("expected conflict")
		}
	}
}
