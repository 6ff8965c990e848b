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
// In virtual time (New) accesses are charged latency: distance to the
// controller plus a queueing term, so controller congestion emerges when
// many cores hammer the same region (the effect behind Fig. 4(b) and the
// elastic-read knee in Fig. 7(b)). In real time (NewRealtime) an access costs
// what the host's memory makes it cost: it is counted, not priced.
//
// # Happens-before on the real-time backends
//
// On live and net the words are plain memory shared by goroutines and there
// is no memory-wide lock, so every ordering the protocol relies on between
// a plain word access and a transactional atomic — where, per Chong,
// Sorensen and Wickerson ("The Semantics of Transactions and Weak Memory",
// PAPERS.md), TM semantics are won or lost — is listed here with what
// provides it and the -race test that exercises it:
//
//   - Write-back -> a later visible reader's read: WriteBatch, then the
//     release message -> DTM node -> grant -> the reader's mailbox receive,
//     then ReadBatchTo. Every hop is an inbox send/receive (its channel, or
//     its spill queue's mutex; on net a socket before it); the page lock
//     both calls take is a second, shorter edge. TestLiveBank/*/visible,
//     TestNetApps.
//   - Write-back -> a TL2 reader, who exchanges no message: LockVersions,
//     WriteBatch and PublishVersions hold the locks of all their pages and
//     ReadVersionedTo holds the object's and the key's together, so it sees
//     the old stripe, the marker, or the new words under the new version.
//     TestReadVersionedNeverTornUnderPublish, TestLiveBank/*/tl2.
//   - A multi-page write set -> a reader of two of its pages: all page
//     locks, ascending, held across each call.
//     TestWriteBatchIndivisibleAcrossPages.
//   - Remote abort -> the victim's checkAborted: CASStatusRemoteObserve and
//     LoadStatusLocal take Registers.mu (registers.go). The node re-grants
//     the victim's lock only after that CAS, so a victim that reads the new
//     holder's words finds itself aborted at the check after every read:
//     CAS -> grant message -> WriteBatch -> page lock -> the victim's read
//     -> its status load. TestLiveBank/*/visible, TestLiveIrrevocable.
//   - First touch: directory levels are CAS-installed and atomically
//     loaded; a page's arrays are created and found under its lock.
//     TestDirectoryInstallRace.
//   - Counters: a core's are written by its one goroutine and summed after
//     Host.Shutdown has waited for it (any live test under -race). The
//     controllers' queueing horizons, the one other word cores would share,
//     do not exist in real time (NewRealtime).
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/noc"
	"repro/internal/port"
)

// Ctx is the execution context charged for a memory access: any execution
// port (a simulated proc or a live goroutine port) that can report time and
// absorb latency. Keeping the interface this small lets mem sit below the
// backend packages. A realtime memory never asks a Ctx the time.
type Ctx interface {
	Now() port.Time
	Advance(d time.Duration)
}

// Addr is a word address in the shared address space.
type Addr uint64

// RegionShift selects the memory-controller region from the high bits:
// region r serves addresses [r<<RegionShift, (r+1)<<RegionShift). Exported
// so the placement directory can derive its stripe universe from the same
// partitioning instead of aliasing far-apart addresses.
const RegionShift = 40

// Word storage is paged behind a lock-free directory: per region, a radix
// tree over the 31-bit page number — four levels of 64 atomic pointers, then
// a leaf of 128 pages. A level is CAS-installed the first time any call
// reaches it and never removed, so a lookup is five dependent loads and
// takes no lock. Each page carries its own mutex, its 512 words
// (materialized by the first non-zero write and kept from then on: nothing
// frees words) and, under TL2, the version words of the stripes whose keys
// fall on it (version.go). Cold ranges of a region cost nothing; a dense
// allocation costs ~8 bytes a word plus 36 bytes a page.
//
// Atomicity: every exported call is one indivisible step with respect to
// any other call touching the same pages. A call that touches several
// pages — a multi-word object astride a boundary, a write set, a stripe's
// version word away from its object — locks all of them in ascending
// page-number order before it reads or writes any (pageSet), so two such
// calls can neither interleave nor deadlock. Calls on disjoint pages do not
// synchronize at all: there is no memory-wide lock.
const (
	pageShift = 9 // 512 words (4 KiB of data) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1

	dirBits  = 6
	leafBits = RegionShift - pageShift - 4*dirBits
)

type page struct {
	mu     sync.Mutex
	w      *[pageWords]uint64      // nil while every word is zero
	ver    *[pageWords]uint64      // nil until the first LockVersions on the page
	marked *[pageWords / 64]uint64 // write-back marker bits, allocated with ver
}

// dirNode is one level of a region's directory. One node type serves every
// level so that the walk is a loop: the upper levels use kids, the lowest
// only pages.
type dirNode struct {
	kids  [1 << dirBits]atomic.Pointer[dirNode]
	pages atomic.Pointer[[1 << leafBits]page]
}

// create installs what p lacks if no call has yet; of several racing
// creators one wins and all return the winner's.
func create[T any](p *atomic.Pointer[T]) *T {
	p.CompareAndSwap(nil, new(T))
	return p.Load()
}

// pageOf returns the page holding addr, creating the directory levels above
// it on the way.
func (m *Memory) pageOf(addr Addr) *page {
	n := &m.dir[addr>>RegionShift]
	for shift := RegionShift - dirBits; shift >= pageShift+leafBits; shift -= dirBits {
		p := &n.kids[addr>>shift&(1<<dirBits-1)]
		if n = p.Load(); n == nil {
			n = create(p)
		}
	}
	leaf := n.pages.Load()
	if leaf == nil {
		leaf = create(&n.pages)
	}
	return &leaf[addr>>pageShift&(1<<leafBits-1)]
}

// pageSet is the pages one call touches, ascending by page number and
// distinct: the order lock takes them in.
type pageSet []pageRef

type pageRef struct {
	pn Addr
	pg *page
}

// add puts addr's page in the set. Ascending input (contiguous words, keys
// in address order) lands at the tail without a search.
func (s pageSet) add(m *Memory, addr Addr) pageSet {
	pn := addr >> pageShift
	i := len(s)
	for i > 0 && s[i-1].pn > pn {
		i--
	}
	if i > 0 && s[i-1].pn == pn {
		return s
	}
	s = append(s, pageRef{})
	copy(s[i+1:], s[i:])
	s[i] = pageRef{pn, m.pageOf(addr)}
	return s
}

// addRun puts the pages of the n words starting at base in the set.
func (s pageSet) addRun(m *Memory, base Addr, n int) pageSet {
	for a, end := base, base+Addr(n-1); ; a = (a | pageMask) + 1 {
		s = s.add(m, a)
		if a|pageMask >= end {
			return s
		}
	}
}

// of returns addr's page, which must be in the set.
func (s pageSet) of(addr Addr) *page {
	i := 0
	for s[i].pn != addr>>pageShift {
		i++
	}
	return s[i].pg
}

func (s pageSet) lock() {
	for i := range s {
		s[i].pg.mu.Lock()
	}
}

func (s pageSet) unlock() {
	for i := range s {
		s[i].pg.mu.Unlock()
	}
}

// Nil is the null address. The allocator never returns it, so data
// structures may use it as a null pointer.
const Nil Addr = 0

// controller is one memory controller's queueing state and bump pointer, on
// a cache line of its own: cores hammering different controllers share
// nothing.
type controller struct {
	busy atomic.Int64  // port.Time the controller is busy until
	brk  atomic.Uint64 // next unallocated word of the region
	_    [48]byte
}

// coreStats is one core's share of MemStats, created by the core's first
// charged access (a 48-core platform running four cores pays for four) and
// sized to whole cache lines. A core is one execution port — one goroutine —
// so the counters are plain words: calls charged to the same core must not
// run concurrently, and the race detector catches a caller that breaks the
// rule.
type coreStats struct {
	wait port.Time
	mc   []coreMC // per controller
	_    [32]byte
}

// coreMC is one core's account with one controller: the words it read and
// wrote there, and noc.Platform.MemDelay (a division and a mesh walk per
// call) tabulated.
type coreMC struct {
	words [2]uint64 // indexed by read, written
	delay time.Duration
}

const read, written = 0, 1

// Memory is the shared address space. Methods are safe for concurrent use
// by multiple execution ports. No lock is held across an Advance and none
// is shared by calls on different pages: on the single-threaded simulation
// backend every lock is uncontended and behavior-free, on the live backend
// accesses to a page linearize at its lock and others run in parallel.
type Memory struct {
	pl *noc.Platform
	// priced: an access extends its controller's queue and advances the
	// caller by the modelled latency. Unset (NewRealtime), it is counted and
	// the caller advanced by nothing — a step, for the port's yield policy.
	priced bool
	dir    []dirNode                   // per-region page directory
	mcs    []controller                // per-controller queue and bump pointer
	stats  []atomic.Pointer[coreStats] // per-core counters, summed by Stats

	// remote, when set, redirects word storage and allocation to another
	// process (the net backend homes all words on rank 0). Latency is still
	// charged locally against the model; only the raw apply crosses the
	// process boundary. See SetRemote.
	remote Remote
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
// identical setup, so the owning rank's copy already agrees, and the
// replica's pages and directory are dropped: every word access forwards from
// now on, so they would never be read again. (Stripe versions live in the
// pages too; TL2, their only user, does not run on the net backend.)
func (m *Memory) SetRemote(r Remote) {
	m.remote = r
	m.dir = make([]dirNode, len(m.dir))
}

// MemStats counts memory traffic.
type MemStats struct {
	Reads, Writes uint64
	PerMC         []uint64
	WaitTime      port.Time // total queueing delay experienced
}

// Stats sums the per-core and per-controller counters. Call it after a run,
// once the machine has quiesced; a mid-run sum is not a consistent cut.
func (m *Memory) Stats() MemStats {
	st := MemStats{PerMC: make([]uint64, len(m.mcs))}
	for i := range m.stats {
		c := m.stats[i].Load()
		if c == nil {
			continue
		}
		st.WaitTime += c.wait
		for mc, a := range c.mc {
			st.Reads, st.Writes = st.Reads+a.words[read], st.Writes+a.words[written]
			st.PerMC[mc] += a.words[read] + a.words[written]
		}
	}
	return st
}

// New returns an empty memory that charges every access the platform's
// modelled latency: the memory of a simulated machine.
func New(pl *noc.Platform) *Memory { return newMemory(pl, true) }

// NewRealtime returns an empty memory for a backend whose time is the
// host's: the platform gives it its shape (controllers, cores, distances for
// NearestMC) and no prices. MemStats word counts stay exact; WaitTime is 0.
func NewRealtime(pl *noc.Platform) *Memory { return newMemory(pl, false) }

func newMemory(pl *noc.Platform, priced bool) *Memory {
	n := pl.MCCount()
	m := &Memory{
		pl:     pl,
		priced: priced,
		dir:    make([]dirNode, n),
		mcs:    make([]controller, n),
		stats:  make([]atomic.Pointer[coreStats], pl.NumCores()),
	}
	for i := range m.mcs {
		// Start each region at word 1 so that Nil (0) is never allocated.
		m.mcs[i].brk.Store(uint64(i)<<RegionShift + 1)
	}
	return m
}

// MCOf returns the memory controller serving addr.
func (m *Memory) MCOf(addr Addr) int {
	mc := int(addr >> RegionShift)
	if mc >= len(m.mcs) {
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
	mc %= len(m.mcs)
	if m.remote != nil {
		// The bump pointers are homed with the words: mid-run allocations
		// (list/hash-set inserts) from different processes must never hand
		// out overlapping addresses.
		return m.remote.Alloc(n, mc)
	}
	return Addr(m.mcs[mc].brk.Add(uint64(n)) - uint64(n))
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

// statsOf returns core's counters, creating them on its first access.
func (m *Memory) statsOf(core int) *coreStats {
	if st := m.stats[core].Load(); st != nil {
		return st
	}
	n := len(m.mcs)
	st := &coreStats{mc: make([]coreMC, n, (n+7)&^7)} // 8 x 24 B: whole lines
	if m.priced {
		for mc := range st.mc {
			st.mc[mc].delay = m.pl.MemDelay(core, mc)
		}
	}
	m.stats[core].Store(st)
	return st
}

// charge accounts nWords accesses of one kind (read or written) by core
// through controller mc and, where they have a price, advances p by their
// latency: queueing and service at the controller plus the distance to it.
// The controller's queue moves by one CAS: racing chargers each extend the
// busy horizon the other left.
func (m *Memory) charge(p Ctx, core, mc, nWords, kind int) {
	st := m.statsOf(core)
	acct := &st.mc[mc]
	acct.words[kind] += uint64(nWords)
	if !m.priced {
		p.Advance(0)
		return
	}
	c := &m.mcs[mc]
	now, service := p.Now(), port.Time(m.pl.MemService)*port.Time(nWords)
	for {
		busy := c.busy.Load()
		start := max(now, port.Time(busy))
		if c.busy.CompareAndSwap(busy, int64(start+service)) {
			st.wait += start - now
			p.Advance((start - now + service).Duration() + acct.delay)
			return
		}
	}
}

// chargeWrites charges one word of write traffic per address: one distance
// payment per controller touched, one service slot per word. Controllers
// are visited in fixed order for determinism; the counter vector lives on
// the stack for realistic controller counts.
func (m *Memory) chargeWrites(p Ctx, core int, addrs []Addr) {
	var mcBuf [8]int
	perMC := mcBuf[:0]
	if len(m.mcs) <= len(mcBuf) {
		perMC = mcBuf[:len(m.mcs)]
	} else {
		perMC = make([]int, len(m.mcs))
	}
	for _, a := range addrs {
		perMC[m.MCOf(a)]++
	}
	for mc, n := range perMC {
		if n > 0 {
			m.charge(p, core, mc, n, written)
		}
	}
}

// Read returns the word at addr, charging access latency to p.
func (m *Memory) Read(p Ctx, core int, addr Addr) uint64 {
	m.charge(p, core, m.MCOf(addr), 1, read)
	return m.ReadRaw(addr)
}

// Write stores v at addr, charging access latency to p.
func (m *Memory) Write(p Ctx, core int, addr Addr, v uint64) {
	m.charge(p, core, m.MCOf(addr), 1, written)
	m.WriteRaw(addr, v)
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
	m.charge(p, core, m.MCOf(base), n, read)
	m.ReadBatchRaw(base, dst)
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
	m.chargeWrites(p, core, addrs)
	if m.remote != nil {
		m.remote.WriteBatchRaw(addrs, values)
	} else {
		m.WriteBatchRaw(addrs, values)
	}
}

// get returns the word at addr; called with pg.mu held.
func (pg *page) get(addr Addr) uint64 {
	if pg.w == nil {
		return 0
	}
	return pg.w[addr&pageMask]
}

// set stores v at addr; called with pg.mu held. The words materialize on
// the first non-zero write.
func (pg *page) set(addr Addr, v uint64) {
	if pg.w == nil {
		if v == 0 {
			return
		}
		pg.w = new([pageWords]uint64)
	}
	pg.w[addr&pageMask] = v
}

// read copies the words from base on — all on this page — into dst; called
// with pg.mu held.
func (pg *page) read(base Addr, dst []uint64) {
	if pg.w == nil {
		clear(dst)
		return
	}
	copy(dst, pg.w[base&pageMask:])
}

// read copies the len(dst) contiguous words starting at base into dst, a
// page at a time; called with every page of the run in s and locked.
func (s pageSet) read(base Addr, dst []uint64) {
	for len(dst) > 0 {
		n := min(pageWords-int(base&pageMask), len(dst))
		s.of(base).read(base, dst[:n])
		base, dst = base+Addr(n), dst[n:]
	}
}

// readWith reads the len(dst) contiguous words starting at base into dst
// and returns stripe key's version metadata, all in one step. Everything on
// one page — the common case — needs no pageSet.
func (m *Memory) readWith(base, key Addr, dst []uint64) (ver uint64, locked bool) {
	if pn := base >> pageShift; (base+Addr(len(dst)-1))>>pageShift == pn && key>>pageShift == pn {
		pg := m.pageOf(base)
		pg.mu.Lock()
		pg.read(base, dst)
		ver, locked = pg.version(key)
		pg.mu.Unlock()
		return ver, locked
	}
	var buf [4]pageRef
	s := pageSet(buf[:0]).add(m, key).addRun(m, base, len(dst))
	s.lock()
	s.read(base, dst)
	ver, locked = s.of(key).version(key)
	s.unlock()
	return ver, locked
}

// ReadRaw returns the word at addr without charging latency. Intended for
// setup and verification code outside the simulated machine, and for the
// elastic-read validation window's free commit-time re-check.
func (m *Memory) ReadRaw(addr Addr) uint64 {
	if m.remote != nil {
		return m.remote.ReadRaw(addr)
	}
	pg := m.pageOf(addr)
	pg.mu.Lock()
	v := pg.get(addr)
	pg.mu.Unlock()
	return v
}

// WriteRaw stores v at addr without charging latency. Intended for setup
// code outside the simulated machine.
func (m *Memory) WriteRaw(addr Addr, v uint64) {
	if m.remote != nil {
		m.remote.WriteRaw(addr, v)
		return
	}
	pg := m.pageOf(addr)
	pg.mu.Lock()
	pg.set(addr, v)
	pg.mu.Unlock()
}

// FillRaw stores n copies of pattern back to back from base on without
// charging latency, with one page walk and lock per page rather than per
// word: the setup of an array whose elements share one initial value. Like
// WriteRaw, a zero word materializes no page.
func (m *Memory) FillRaw(base Addr, n int, pattern []uint64) {
	w := len(pattern)
	if m.remote != nil {
		for i := range n * w {
			m.remote.WriteRaw(base+Addr(i), pattern[i%w])
		}
		return
	}
	for i, j := 0, 0; i < n*w; {
		a := base + Addr(i)
		pg, end := m.pageOf(a), min(i+pageWords-int(a&pageMask), n*w)
		pg.mu.Lock()
		for ; i < end; i++ {
			pg.set(base+Addr(i), pattern[j])
			if j++; j == w {
				j = 0
			}
		}
		pg.mu.Unlock()
	}
}

// ReadBatchRaw reads the len(dst) contiguous words starting at base into dst
// without charging latency, from the rank that holds them: the serving side
// of a forwarded ReadBatch, and a visible read's re-read of words its lock
// pins.
func (m *Memory) ReadBatchRaw(base Addr, dst []uint64) {
	if m.remote != nil {
		m.remote.ReadBatchRaw(base, dst)
		return
	}
	m.readWith(base, base, dst)
}

// WriteBatchRaw stores values[i] at addrs[i] without charging latency: the
// serving side of a forwarded WriteBatch.
func (m *Memory) WriteBatchRaw(addrs []Addr, values []uint64) {
	var buf [4]pageRef
	s := pageSet(buf[:0])
	for _, a := range addrs {
		s = s.add(m, a)
	}
	s.lock()
	for i, a := range addrs {
		s.of(a).set(a, values[i])
	}
	s.unlock()
}
