package mem

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/port"
)

// Micro-benchmarks of the four memory operations a transaction's hot path
// is made of, each under b.RunParallel so `-cpu 1,2` shows both the single-
// thread cost and what two cores on one controller do to each other. Every
// goroutine is its own core, draws its own addresses and keeps its result
// in a local, so nothing but the Memory is shared. The file uses only the
// package's long-standing exported API: copy it onto an older commit to
// measure that commit.

type benchCtx struct{}

func (benchCtx) Now() port.Time        { return 0 }
func (benchCtx) Advance(time.Duration) {}

const benchWords = 1 << 16

// benchMem returns a memory with benchWords non-zero words in region 0.
func benchMem() (*Memory, Addr) {
	pl := noc.SCC(0)
	m := New(&pl)
	base := m.Alloc(benchWords, 0)
	for i := 0; i < benchWords; i++ {
		m.WriteRaw(base+Addr(i), uint64(i)+1)
	}
	return m, base
}

// benchParallel runs, on every goroutine of b.RunParallel, the operation
// setup returns for it; setup hands each goroutine a distinct core and
// random stream, and is where the goroutine's buffers live.
func benchParallel(b *testing.B, setup func(core int, r *port.Rand) func()) {
	var cores atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		core := int(cores.Add(1) - 1)
		r := port.NewRand(uint64(core) + 1)
		op := setup(core, &r)
		for pb.Next() {
			op()
		}
	})
}

func BenchmarkReadBatchTo(b *testing.B) {
	m, base := benchMem()
	benchParallel(b, func(core int, r *port.Rand) func() {
		dst := make([]uint64, 1)
		return func() { m.ReadBatchTo(benchCtx{}, core, base+Addr(r.Intn(benchWords)), dst) }
	})
}

func BenchmarkReadVersionedTo(b *testing.B) {
	m, base := benchMem()
	benchParallel(b, func(core int, r *port.Rand) func() {
		dst := make([]uint64, 1)
		return func() {
			a := base + Addr(r.Intn(benchWords))
			m.ReadVersionedTo(benchCtx{}, core, a, a, dst)
		}
	})
}

// BenchmarkWriteBatchPair is a transfer's write-back: two words, almost
// always on two pages.
func BenchmarkWriteBatchPair(b *testing.B) {
	m, base := benchMem()
	benchParallel(b, func(core int, r *port.Rand) func() {
		addrs, vals := make([]Addr, 2), []uint64{1, 2}
		return func() {
			addrs[0], addrs[1] = base+Addr(r.Intn(benchWords)), base+Addr(r.Intn(benchWords))
			m.WriteBatch(benchCtx{}, core, addrs, vals)
		}
	})
}

// BenchmarkTL2CommitTriple is a TL2 update's persist step on two stripes:
// LockVersions, WriteBatch, PublishVersions. Each goroutine draws from its
// own share of the words, so no marker is ever found set.
func BenchmarkTL2CommitTriple(b *testing.B) {
	m, base := benchMem()
	vc := NewVClock(8)
	share := benchWords / runtime.GOMAXPROCS(0)
	benchParallel(b, func(core int, r *port.Rand) func() {
		lo := base + Addr(core*share)
		keys, vals := make([]Addr, 2), []uint64{3, 4}
		return func() {
			i := r.Intn(share)
			keys[0], keys[1] = lo+Addr(i), lo+Addr((i+share/2)%share)
			m.LockVersions(benchCtx{}, core, keys)
			m.WriteBatch(benchCtx{}, core, keys, vals)
			m.PublishVersions(benchCtx{}, core, keys, vc.Tick(core))
		}
	})
}
