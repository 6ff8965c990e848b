// Package mem emulates the non-coherent shared memory of a many-core: a
// flat, word-addressable address space reached through a small number of
// memory controllers, with no hardware cache coherence.
//
// The address space is partitioned into one region per memory controller
// (high address bits select the controller), matching the SCC where each
// DDR3 controller serves a fixed physical range. A bump allocator per region
// lets callers place data near a chosen controller — the paper relies on
// this ("each core adding a new element stores it in its closest memory
// controller", §5.2).
//
// Accesses are charged virtual latency: distance to the controller plus a
// queueing term, so controller congestion emerges when many cores hammer
// the same region (the effect behind Fig. 4(b) and the elastic-read knee in
// Fig. 7(b)).
package mem

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Ctx is the execution context charged for a memory access: any execution
// port (a simulated proc or a live goroutine port) that can report time and
// absorb latency. Keeping the interface this small lets mem sit below the
// backend packages.
type Ctx interface {
	Now() sim.Time
	Advance(d time.Duration)
}

// Addr is a word address in the shared address space.
type Addr uint64

// RegionShift selects the memory-controller region from the high bits:
// region r serves addresses [r<<RegionShift, (r+1)<<RegionShift). Exported
// so the placement directory can derive its stripe universe from the same
// partitioning instead of aliasing far-apart addresses.
const RegionShift = 40

// Word storage is paged: a sparse map of fixed-size pages rather than one
// map entry per word. At the million-object scales the ROADMAP targets, a
// per-word map costs ~50 bytes/entry and a cache miss per access; pages
// amortize to ~8 bytes/word for any reasonably dense allocation while cold
// ranges of the 2^40-word regions cost nothing. A page that drops to zero
// live words is freed, so footprint tracks the working set, not the
// universe.
const (
	pageShift = 9 // 512 words (4 KiB of data) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page struct {
	live int // non-zero words on the page
	w    [pageWords]uint64
}

// Nil is the null address. The allocator never returns it, so data
// structures may use it as a null pointer.
const Nil Addr = 0

// Memory is the shared address space. Methods are safe for concurrent use
// by multiple execution ports: internal state is guarded by a mutex that is
// never held across an Advance, so on the single-threaded simulation
// backend the lock is uncontended and the virtual-time behavior is exactly
// what it was when the kernel's one-at-a-time discipline was the only
// protection, while on the live backend concurrent goroutine accesses
// linearize at the lock.
type Memory struct {
	pl *noc.Platform

	mu      sync.Mutex
	pages   map[Addr]*page  // page number -> page (sparse word storage)
	nonzero int             // non-zero words across all pages
	vers    map[Addr]objVer // per-lock-stripe TL2 version metadata (see version.go); populated only for written stripes
	brk     []Addr          // per-region bump pointer
	busy    []sim.Time      // per-controller queue: time the MC is busy until

	// remote, when set, redirects word storage and allocation to another
	// process (the net backend homes all words on rank 0). Latency is still
	// charged locally against the model; only the raw apply crosses the
	// process boundary. See SetRemote.
	remote Remote

	// Stats accumulates access counters (guarded by mu); read them after a
	// run, once the machine has quiesced.
	Stats MemStats
}

// Remote is the net backend's cross-process storage hook: raw, latency-free
// word operations executed in the owning process. Implementations must be
// safe for concurrent use.
type Remote interface {
	ReadRaw(addr Addr) uint64
	WriteRaw(addr Addr, v uint64)
	ReadBatchRaw(base Addr, dst []uint64) // len(dst) words into dst
	WriteBatchRaw(addrs []Addr, vals []uint64)
	Alloc(n, mc int) Addr
}

// SetRemote redirects this replica's word storage and allocation to r
// (rank 0's memory, on the net backend). Install it before the engine
// releases any worker goroutine — the field is read without
// synchronization after that point. Setup code that ran before SetRemote
// wrote to the local replica; by replicated construction every rank ran the
// identical setup, so the owning rank's copy already agrees.
func (m *Memory) SetRemote(r Remote) { m.remote = r }

// MemStats counts memory traffic.
type MemStats struct {
	Reads, Writes uint64
	PerMC         []uint64
	WaitTime      sim.Time // total queueing delay experienced
}

// New returns an empty memory for the platform.
func New(pl *noc.Platform) *Memory {
	n := pl.MCCount()
	m := &Memory{
		pl:    pl,
		pages: make(map[Addr]*page),
		vers:  make(map[Addr]objVer),
		brk:   make([]Addr, n),
		busy:  make([]sim.Time, n),
	}
	m.Stats.PerMC = make([]uint64, n)
	for i := range m.brk {
		// Start each region at word 1 so that Nil (0) is never allocated.
		m.brk[i] = Addr(i)<<RegionShift + 1
	}
	return m
}

// MCOf returns the memory controller serving addr.
func (m *Memory) MCOf(addr Addr) int {
	mc := int(addr >> RegionShift)
	if mc >= len(m.brk) {
		panic(fmt.Sprintf("mem: address %#x outside any controller region", uint64(addr)))
	}
	return mc
}

// Alloc reserves n contiguous words in controller mc's region and returns
// the base address. It never fails (the regions are 2^40 words). Workers
// allocate inside transactions (list/hash-set inserts), so Alloc is safe
// for concurrent use.
func (m *Memory) Alloc(n int, mc int) Addr {
	if n <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	mc %= len(m.brk)
	if m.remote != nil {
		// The bump pointers are homed with the words: mid-run allocations
		// (list/hash-set inserts) from different processes must never hand
		// out overlapping addresses.
		return m.remote.Alloc(n, mc)
	}
	m.mu.Lock()
	base := m.brk[mc]
	m.brk[mc] += Addr(n)
	m.mu.Unlock()
	return base
}

// NearestMC returns the controller closest to core on the platform.
func (m *Memory) NearestMC(core int) int {
	best, bestHops := 0, 1<<30
	for mc := 0; mc < m.pl.MCCount(); mc++ {
		if h := m.pl.MemHops(core, mc); h < bestHops {
			best, bestHops = mc, h
		}
	}
	return best
}

// AllocNear reserves n words in the region of the controller closest to
// core.
func (m *Memory) AllocNear(n int, core int) Addr {
	return m.Alloc(n, m.NearestMC(core))
}

// charge accounts nWords accesses through mc at time now and returns the
// queueing + service latency to charge (the distance term is added by the
// caller). Called with mu held.
func (m *Memory) charge(now sim.Time, mc, nWords int) sim.Time {
	m.Stats.PerMC[mc] += uint64(nWords)
	start := now
	if m.busy[mc] > start {
		start = m.busy[mc]
	}
	wait := start - now
	service := sim.Time(m.pl.MemService) * sim.Time(nWords)
	m.busy[mc] = start + service
	m.Stats.WaitTime += wait
	return wait + service
}

// access charges p with the latency of nWords accesses from core through
// addr's controller. A batch pays the distance once and occupies the
// controller once per word. The lock is dropped before Advance: a parked
// proc must never hold it.
func (m *Memory) access(p Ctx, core int, addr Addr, nWords int) {
	mc := m.MCOf(addr)
	now := p.Now()
	m.mu.Lock()
	busy := m.charge(now, mc, nWords)
	m.mu.Unlock()
	p.Advance(busy.Duration() + m.pl.MemDelay(core, mc))
}

// Read returns the word at addr, charging access latency to p.
func (m *Memory) Read(p Ctx, core int, addr Addr) uint64 {
	m.mu.Lock()
	m.Stats.Reads++
	m.mu.Unlock()
	m.access(p, core, addr, 1)
	if m.remote != nil {
		return m.remote.ReadRaw(addr)
	}
	m.mu.Lock()
	v := m.getWord(addr)
	m.mu.Unlock()
	return v
}

// Write stores v at addr, charging access latency to p.
func (m *Memory) Write(p Ctx, core int, addr Addr, v uint64) {
	m.mu.Lock()
	m.Stats.Writes++
	m.mu.Unlock()
	m.access(p, core, addr, 1)
	if m.remote != nil {
		m.remote.WriteRaw(addr, v)
		return
	}
	m.mu.Lock()
	m.setWord(addr, v)
	m.mu.Unlock()
}

// ReadBatch returns the n contiguous words starting at base, charging one
// batched access: the distance to the controller is paid once, the
// controller is occupied once per word. Objects (multi-word records) are
// read this way.
func (m *Memory) ReadBatch(p Ctx, core int, base Addr, n int) []uint64 {
	if n <= 0 {
		panic("mem: ReadBatch of non-positive size")
	}
	return m.ReadBatchTo(p, core, base, make([]uint64, n))
}

// ReadBatchTo is ReadBatch reading len(dst) words into dst — identical
// charging, no allocation — and returns dst. The hot transactional read path
// passes arena-backed buffers here.
func (m *Memory) ReadBatchTo(p Ctx, core int, base Addr, dst []uint64) []uint64 {
	n := len(dst)
	if n <= 0 {
		panic("mem: ReadBatchTo of empty buffer")
	}
	m.mu.Lock()
	m.Stats.Reads += uint64(n)
	m.mu.Unlock()
	m.access(p, core, base, n)
	if m.remote != nil {
		m.remote.ReadBatchRaw(base, dst)
		return dst
	}
	m.mu.Lock()
	m.getBatch(base, dst)
	m.mu.Unlock()
	return dst
}

// WriteBatch stores values[i] at addrs[i], charging a single batched access:
// one distance payment per controller touched, one service slot per word.
func (m *Memory) WriteBatch(p Ctx, core int, addrs []Addr, values []uint64) {
	if len(addrs) != len(values) {
		panic("mem: WriteBatch length mismatch")
	}
	if len(addrs) == 0 {
		return
	}
	// Group per controller, paying distance once per controller; iterate
	// controllers in fixed order for determinism. The counter vector lives
	// on the stack for realistic controller counts.
	var mcBuf [8]int
	perMC := mcBuf[:0]
	if len(m.brk) <= len(mcBuf) {
		perMC = mcBuf[:len(m.brk)]
	} else {
		perMC = make([]int, len(m.brk))
	}
	for _, a := range addrs {
		perMC[m.MCOf(a)]++
	}
	m.mu.Lock()
	m.Stats.Writes += uint64(len(addrs))
	m.mu.Unlock()
	for mc, n := range perMC {
		if n == 0 {
			continue
		}
		now := p.Now()
		m.mu.Lock()
		busy := m.charge(now, mc, n)
		m.mu.Unlock()
		p.Advance(busy.Duration() + m.pl.MemDelay(core, mc))
	}
	if m.remote != nil {
		m.remote.WriteBatchRaw(addrs, values)
		return
	}
	m.mu.Lock()
	for i, a := range addrs {
		m.setWord(a, values[i])
	}
	m.mu.Unlock()
}

// getWord returns the word at addr; called with mu held.
func (m *Memory) getWord(addr Addr) uint64 {
	if pg := m.pages[addr>>pageShift]; pg != nil {
		return pg.w[addr&pageMask]
	}
	return 0
}

// getBatch reads len(dst) contiguous words starting at base into dst,
// walking whole pages at a time; called with mu held.
func (m *Memory) getBatch(base Addr, dst []uint64) {
	for i := 0; i < len(dst); {
		a := base + Addr(i)
		n := pageWords - int(a&pageMask)
		if rest := len(dst) - i; n > rest {
			n = rest
		}
		if pg := m.pages[a>>pageShift]; pg != nil {
			copy(dst[i:i+n], pg.w[a&pageMask:int(a&pageMask)+n])
		} else {
			for j := i; j < i+n; j++ {
				dst[j] = 0
			}
		}
		i += n
	}
}

// setWord stores v at addr; called with mu held. Pages materialize on first
// non-zero write and free when their last live word zeroes, so storage
// stays proportional to the live working set.
func (m *Memory) setWord(addr Addr, v uint64) {
	pn := addr >> pageShift
	pg := m.pages[pn]
	if pg == nil {
		if v == 0 {
			return
		}
		pg = &page{}
		m.pages[pn] = pg
	}
	slot := &pg.w[addr&pageMask]
	old := *slot
	*slot = v
	switch {
	case old == 0 && v != 0:
		pg.live++
		m.nonzero++
	case old != 0 && v == 0:
		pg.live--
		m.nonzero--
		if pg.live == 0 {
			delete(m.pages, pn)
		}
	}
}

// ReadRaw returns the word at addr without charging latency. Intended for
// setup and verification code outside the simulated machine, and for the
// elastic-read validation window's free commit-time re-check.
func (m *Memory) ReadRaw(addr Addr) uint64 {
	if m.remote != nil {
		return m.remote.ReadRaw(addr)
	}
	m.mu.Lock()
	v := m.getWord(addr)
	m.mu.Unlock()
	return v
}

// WriteRaw stores v at addr without charging latency. Intended for setup
// code outside the simulated machine.
func (m *Memory) WriteRaw(addr Addr, v uint64) {
	if m.remote != nil {
		m.remote.WriteRaw(addr, v)
		return
	}
	m.mu.Lock()
	m.setWord(addr, v)
	m.mu.Unlock()
}

// ReadBatchRaw reads the len(dst) contiguous words starting at base into dst
// without charging latency: the serving side of a forwarded ReadBatch.
func (m *Memory) ReadBatchRaw(base Addr, dst []uint64) {
	m.mu.Lock()
	m.getBatch(base, dst)
	m.mu.Unlock()
}

// WriteBatchRaw stores values[i] at addrs[i] without charging latency: the
// serving side of a forwarded WriteBatch.
func (m *Memory) WriteBatchRaw(addrs []Addr, values []uint64) {
	m.mu.Lock()
	for i, a := range addrs {
		m.setWord(a, values[i])
	}
	m.mu.Unlock()
}

// Footprint returns the number of non-zero words currently stored.
func (m *Memory) Footprint() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nonzero
}
