package mem

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/noc"
	"repro/internal/port"
	"repro/internal/sim"
)

func newTestMem() (*noc.Platform, *Memory) {
	pl := noc.SCC(0)
	return &pl, New(&pl)
}

func TestAllocNeverReturnsNil(t *testing.T) {
	_, m := newTestMem()
	for mc := 0; mc < 4; mc++ {
		if a := m.Alloc(1, mc); a == Nil {
			t.Fatalf("Alloc returned Nil in region %d", mc)
		}
	}
}

func TestAllocRegionsDisjoint(t *testing.T) {
	_, m := newTestMem()
	type span struct{ lo, hi Addr }
	var spans []span
	for i := 0; i < 200; i++ {
		n := i%17 + 1
		a := m.Alloc(n, i%4)
		spans = append(spans, span{a, a + Addr(n)})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("allocations overlap: %+v and %+v", a, b)
			}
		}
	}
}

func TestAllocPropertyNonOverlapping(t *testing.T) {
	if err := quick.Check(func(sizes []uint8) bool {
		_, m := newTestMem()
		seen := make(map[Addr]bool)
		for i, s := range sizes {
			n := int(s%32) + 1
			base := m.Alloc(n, i%4)
			for w := Addr(0); w < Addr(n); w++ {
				if seen[base+w] {
					return false
				}
				seen[base+w] = true
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMCOfMatchesAllocRegion(t *testing.T) {
	_, m := newTestMem()
	for mc := 0; mc < 4; mc++ {
		a := m.Alloc(8, mc)
		if got := m.MCOf(a); got != mc {
			t.Errorf("MCOf(alloc in %d) = %d", mc, got)
		}
	}
}

func TestAllocPanicsOnNonPositive(t *testing.T) {
	_, m := newTestMem()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	m.Alloc(0, 0)
}

func TestReadAfterWrite(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	a := m.Alloc(4, 0)
	k.Spawn("c", func(p *sim.Proc) {
		m.Write(p, 0, a, 42)
		if v := m.Read(p, 0, a); v != 42 {
			t.Errorf("read back %d, want 42", v)
		}
		if v := m.Read(p, 0, a+1); v != 0 {
			t.Errorf("unwritten word = %d, want 0", v)
		}
	})
	k.Run(port.Infinity)
}

func TestAccessChargesLatency(t *testing.T) {
	pl, m := newTestMem()
	k := sim.New(1)
	a := m.Alloc(1, 0)
	var elapsed port.Time
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		m.Read(p, 0, a)
		elapsed = p.Now() - start
	})
	k.Run(port.Infinity)
	min := port.Time(pl.MemBase)
	if elapsed < min {
		t.Fatalf("read took %v, want >= %v", elapsed, min)
	}
}

func TestControllerCongestion(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	a := m.Alloc(1, 0)
	// Ten cores hit the same controller at t=0; later ones must queue.
	var times []port.Time
	for c := 0; c < 10; c++ {
		core := c
		k.Spawn("c", func(p *sim.Proc) {
			m.Read(p, core, a)
			times = append(times, p.Now())
		})
	}
	k.Run(port.Infinity)
	st := m.Stats()
	if st.WaitTime == 0 {
		t.Fatal("expected queueing wait under contention")
	}
	if st.Reads != 10 {
		t.Fatalf("reads = %d", st.Reads)
	}
}

func TestWriteBatchCheaperThanSingles(t *testing.T) {
	cost := func(batch bool) port.Time {
		_, m := newTestMem()
		k := sim.New(1)
		addrs := make([]Addr, 16)
		vals := make([]uint64, 16)
		base := m.Alloc(16, 0)
		for i := range addrs {
			addrs[i] = base + Addr(i)
			vals[i] = uint64(i + 1)
		}
		var elapsed port.Time
		k.Spawn("c", func(p *sim.Proc) {
			start := p.Now()
			if batch {
				m.WriteBatch(p, 0, addrs, vals)
			} else {
				for i := range addrs {
					m.Write(p, 0, addrs[i], vals[i])
				}
			}
			elapsed = p.Now() - start
		})
		k.Run(port.Infinity)
		for i := range addrs {
			if m.ReadRaw(addrs[i]) != vals[i] {
				t.Fatalf("batch=%v lost write at %d", batch, i)
			}
		}
		return elapsed
	}
	if b, s := cost(true), cost(false); b >= s {
		t.Fatalf("batch (%v) should be cheaper than singles (%v)", b, s)
	}
}

func TestWriteBatchValidation(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	k.Spawn("c", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Errorf("length mismatch did not panic")
			}
		}()
		m.WriteBatch(p, 0, []Addr{1}, nil)
	})
	k.Run(port.Infinity)
}

func TestWriteBatchEmptyIsFree(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		m.WriteBatch(p, 0, nil, nil)
		if p.Now() != start {
			t.Errorf("empty batch consumed time")
		}
	})
	k.Run(port.Infinity)
}

// Footprint returns the number of non-zero words stored, by scanning every
// materialized page; each page is locked while it is counted.
func (m *Memory) Footprint() int {
	n := 0
	var walk func(*dirNode)
	walk = func(d *dirNode) {
		for i := range d.kids {
			if kid := d.kids[i].Load(); kid != nil {
				walk(kid)
			}
		}
		leaf := d.pages.Load()
		for i := 0; leaf != nil && i < len(leaf); i++ {
			pg := &leaf[i]
			pg.mu.Lock()
			if pg.w != nil {
				for _, w := range pg.w {
					if w != 0 {
						n++
					}
				}
			}
			pg.mu.Unlock()
		}
	}
	for r := range m.dir {
		walk(&m.dir[r])
	}
	return n
}

func TestZeroWritesKeepPagesSparse(t *testing.T) {
	_, m := newTestMem()
	a := m.Alloc(1, 0)
	m.WriteRaw(a, 0)
	if m.pageOf(a).w != nil {
		t.Fatal("a zero write materialized a page's words")
	}
	m.WriteRaw(a, 7)
	if m.Footprint() != 1 {
		t.Fatalf("footprint = %d", m.Footprint())
	}
	m.WriteRaw(a, 0)
	if m.Footprint() != 0 {
		t.Fatalf("footprint after zeroing = %d", m.Footprint())
	}
}

// TestFillRaw: n copies of a pattern land back to back across page
// boundaries, in the words WriteRaw would have written; an all-zero pattern
// materializes no page but does clear a materialized one.
func TestFillRaw(t *testing.T) {
	_, m := newTestMem()
	m.Alloc(pageWords-5, 0) // the fill starts 4 words before a page ends
	const n = pageWords + 3
	pattern := []uint64{7, 0, 9}
	base := m.Alloc(n*len(pattern), 0)
	m.FillRaw(base, n, pattern)
	for i := 0; i < n*len(pattern); i++ {
		if got, want := m.ReadRaw(base+Addr(i)), pattern[i%len(pattern)]; got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
	if got, want := m.Footprint(), 2*n; got != want {
		t.Fatalf("footprint %d, want %d", got, want)
	}
	if got := m.ReadRaw(base + Addr(n*len(pattern))); got != 0 {
		t.Fatalf("the word past the fill = %d", got)
	}

	m.Alloc(pageWords, 0) // no page shared with the fill above
	zeros := m.Alloc(3*pageWords, 0)
	m.FillRaw(zeros, pageWords, []uint64{0, 0, 0})
	for a := zeros; a < zeros+3*pageWords; a += pageWords {
		if m.pageOf(a).w != nil {
			t.Fatalf("a zero fill materialized the page of %#x", uint64(a))
		}
	}
	m.FillRaw(base, n, []uint64{0, 0, 0})
	if got := m.Footprint(); got != 0 {
		t.Fatalf("footprint after a zero fill over the words = %d", got)
	}
}

func TestNearestMC(t *testing.T) {
	_, m := newTestMem()
	// Core 0 is at tile (0,0): controller 0's corner.
	if mc := m.NearestMC(0); mc != 0 {
		t.Errorf("NearestMC(0) = %d, want 0", mc)
	}
	// Core 47 is at tile (5,3): controller 3's corner.
	if mc := m.NearestMC(47); mc != 3 {
		t.Errorf("NearestMC(47) = %d, want 3", mc)
	}
	a := m.AllocNear(4, 47)
	if m.MCOf(a) != 3 {
		t.Errorf("AllocNear(47) placed in MC %d", m.MCOf(a))
	}
}

func TestMCOfPanicsOutsideRegions(t *testing.T) {
	_, m := newTestMem()
	defer func() {
		if recover() == nil {
			t.Fatal("MCOf on wild address did not panic")
		}
	}()
	m.MCOf(Addr(200) << 40)
}

func TestStatusRegisterLifecycle(t *testing.T) {
	pl := noc.SCC(0)
	r := NewRegisters(&pl)
	r.SetStatusLocal(3, 100, TxPending)
	if id, st := r.LoadStatusLocal(3); id != 100 || st != TxPending {
		t.Fatalf("load = (%d,%v)", id, st)
	}
	if !r.CASStatusLocal(3, 100, TxPending, TxCommitting) {
		t.Fatal("CAS pending->committing failed")
	}
	if r.CASStatusLocal(3, 100, TxPending, TxAborted) {
		t.Fatal("CAS from stale state succeeded")
	}
	if r.CASStatusLocal(3, 99, TxCommitting, TxAborted) {
		t.Fatal("CAS with wrong txID succeeded")
	}
}

func TestRemoteCASChargesLatency(t *testing.T) {
	pl := noc.SCC(0)
	r := NewRegisters(&pl)
	r.SetStatusLocal(40, 7, TxPending)
	k := sim.New(1)
	k.Spawn("dtm", func(p *sim.Proc) {
		start := p.Now()
		if sw, _, _ := r.CASStatusRemoteObserve(p, 0, 40, 7, TxPending, TxAborted); !sw {
			t.Errorf("remote CAS failed")
		}
		if p.Now() == start {
			t.Errorf("remote CAS was free")
		}
	})
	k.Run(port.Infinity)
	if _, st := r.LoadStatusLocal(40); st != TxAborted {
		t.Fatalf("state = %v, want aborted", st)
	}
	if r.RemoteOps != 1 {
		t.Fatalf("RemoteOps = %d", r.RemoteOps)
	}
}

func TestTASSemantics(t *testing.T) {
	pl := noc.SCC(0)
	r := NewRegisters(&pl)
	k := sim.New(1)
	k.Spawn("c", func(p *sim.Proc) {
		if r.TAS(p, 1, 0) {
			t.Errorf("first TAS should return false (was clear)")
		}
		if !r.TAS(p, 2, 0) {
			t.Errorf("second TAS should return true (was set)")
		}
		r.TASRelease(p, 1, 0)
		if r.TAS(p, 3, 0) {
			t.Errorf("TAS after release should return false")
		}
	})
	k.Run(port.Infinity)
}

func TestTxStateString(t *testing.T) {
	names := map[TxState]string{
		TxFree: "free", TxPending: "pending", TxCommitting: "committing",
		TxAborted: "aborted", TxCommitted: "committed", TxState(99): "invalid",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestMemDelayFartherMCCostsMore(t *testing.T) {
	// Sanity for time.Duration plumbing between noc and mem.
	pl := noc.SCC(0)
	if pl.MemDelay(0, 3)-pl.MemDelay(0, 0) < time.Duration(8)*pl.MemPerHop {
		t.Fatal("per-hop memory cost not applied")
	}
}
