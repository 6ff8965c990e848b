package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/trace"
)

// runRanks runs one system on every rank of backend (one process-local
// system on sim and live, two ranks over unix sockets on net): setup
// allocates the shared data, identically on every rank, and returns the
// worker body. Every run must drain with empty, consistent lock tables. It
// returns the systems and rank 0's stats, which hold every rank's totals.
func runRanks(t *testing.T, backend Backend, mut func(*Config), setup func(s *System) func(rt *Runtime)) ([]*System, *Stats) {
	t.Helper()
	ranks := 1
	var addrs []string
	if backend == BackendNet {
		ranks = 2
		dir := t.TempDir()
		addrs = []string{"unix:" + dir + "/r0", "unix:" + dir + "/r1"}
	}
	var (
		wg        sync.WaitGroup
		errs      = make([]error, ranks)
		systems   = make([]*System, ranks)
		rankStats = make([]*Stats, ranks)
	)
	for r := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: %v", r, p)
				}
			}()
			cfg := Config{Platform: noc.SCC(0), Backend: backend, Seed: 5, TotalCores: 8, Policy: cm.FairCM}
			if mut != nil {
				mut(&cfg)
			}
			if ranks > 1 {
				cfg.Net = &NetConfig{Ranks: ranks, Rank: r, Addrs: addrs}
			}
			s, err := NewSystem(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			systems[r] = s
			s.SpawnWorkers(setup(s))
			rankStats[r] = s.RunToCompletion()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for r, s := range systems {
		if n := s.LockedAddrs(); n != 0 {
			t.Errorf("rank %d: %d addresses still locked after the run", r, n)
		}
		for _, n := range s.nodes {
			if err := n.table.CheckInvariants(); err != nil {
				t.Errorf("rank %d: DTM node %d: %v", r, n.idx, err)
			}
		}
	}
	return systems, rankStats[0]
}

// regionEndArray allocates an n-account array that ends where the last
// memory controller's region ends, so no word at all lies past it.
func regionEndArray(t *testing.T, s *System, n int) TArray[uint64] {
	t.Helper()
	mc := s.cfg.Platform.MCCount() - 1
	end := mem.Addr(mc+1) << mem.RegionShift
	brk := s.Mem.Alloc(1, mc)
	s.Mem.Alloc(int(end-brk-1)-n, mc)
	a := NewTArrayAt(s, Uint64Codec(), n, mc, 7)
	if a.Addr(n-1)+1 != end {
		t.Fatalf("array ends at %#x, want the region end %#x", uint64(a.Addr(n-1)+1), uint64(end))
	}
	return a
}

// watchLocks installs lockSent for the test: see gets every read-lock
// request's node and keys, from any rank's goroutine, one at a time.
func watchLocks(t *testing.T, see func(node int, keys []mem.Addr)) {
	var mu sync.Mutex
	lockSent = func(node int, req *reqLock) {
		if req.Mode == lockRead {
			mu.Lock()
			defer mu.Unlock()
			see(node, req.Addrs)
		}
	}
	t.Cleanup(func() { lockSent = nil })
}

// firstApp is the lowest application core.
func firstApp(s *System) int { return slices.Min(s.AppCores()) }

// TestReadAheadScan: a full scan of a TArray, once Normal and once
// ReadOnly, on every backend and deployment, sees the exact total, commits
// without leaving a read-ahead lock unread, asks for no key past the
// array's end, and leaves every lock table empty. On sim, one 1,024-element
// scan over 24 DTM nodes sends a pinned number of read-lock requests. The
// live and net rows also run in CI's -race steps.
func TestReadAheadScan(t *testing.T) {
	const n = 1024
	rows := []struct {
		name    string
		backend Backend
		deploy  Deployment
		cores   int
		reqs    uint64 // pinned read-lock requests of one scan (sim)
	}{
		{name: "sim/dedicated", cores: 48, reqs: 47},
		{name: "sim/multitask", deploy: Multitask},
		{name: "live/dedicated", backend: BackendLive},
		{name: "live/multitask", backend: BackendLive, deploy: Multitask},
		{name: "net/dedicated", backend: BackendNet},
		{name: "net/multitask", backend: BackendNet, deploy: Multitask},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var outside, reqs, keys, lo, hi atomic.Uint64
			watchLocks(t, func(_ int, ks []mem.Addr) {
				reqs.Add(1)
				keys.Add(uint64(len(ks)))
				for _, k := range ks {
					if uint64(k) < lo.Load() || uint64(k) >= hi.Load() {
						outside.Add(1)
					}
				}
			})
			var sums [2]atomic.Uint64
			_, st := runRanks(t, row.backend, func(c *Config) {
				c.Deployment = row.deploy
				if row.cores > 0 {
					c.TotalCores = row.cores
				}
			}, func(s *System) func(rt *Runtime) {
				a := regionEndArray(t, s, n)
				lo.Store(uint64(a.Addr(0)))
				hi.Store(uint64(a.Addr(n-1) + 1))
				scanner := firstApp(s)
				return func(rt *Runtime) {
					if rt.Core() != scanner {
						return
					}
					for i, kind := range []TxKind{Normal, ReadOnly} {
						rt.RunKind(kind, func(tx *Tx) {
							var sum uint64
							for j := range n {
								sum += a.Get(tx, j)
							}
							sums[i].Store(sum)
						})
					}
				}
			})
			for i := range sums {
				if got := sums[i].Load(); got != 7*n {
					t.Errorf("scan %d saw %d, want %d", i, got, 7*n)
				}
			}
			if st.Aborts != 0 {
				t.Fatalf("%d aborts in an uncontended run", st.Aborts)
			}
			if st.ReadAheadKeys == 0 || st.ReadAheadUnused != 0 {
				t.Errorf("read ahead %d keys, %d unused; want some, none unused", st.ReadAheadKeys, st.ReadAheadUnused)
			}
			if got, want := keys.Load(), uint64(2*n); got != want {
				t.Errorf("the scans asked for %d keys, want each element once: %d", got, want)
			}
			if outside.Load() != 0 {
				t.Errorf("%d requested keys lie outside the array", outside.Load())
			}
			if st.ReadLockReqs != reqs.Load() {
				t.Errorf("ReadLockReqs %d, hook saw %d", st.ReadLockReqs, reqs.Load())
			}
			if row.reqs != 0 && st.ReadLockReqs != 2*row.reqs {
				t.Errorf("two 1,024-element scans sent %d read-lock requests, want %d each", st.ReadLockReqs, row.reqs)
			}
			t.Logf("%d read-lock requests for %d elements, %d keys read ahead", st.ReadLockReqs, 2*n, st.ReadAheadKeys)
		})
	}
}

// TestReadAheadStopsEarly: a Normal scan that stops after its k-th element
// holds no more than min(k², readAheadCap) locks it never reads, and its
// commit releases them: every lock table is empty afterwards. The scan's
// first k-1 elements are already in the read set (read backwards, which
// does not batch), so the k-th is the miss with the widest window a k-element
// run can ask for, and one DTM node owns every element, so that window is
// locked whole. The live and net rows also run in CI's -race steps.
func TestReadAheadStopsEarly(t *testing.T) {
	const n = 2048 // longer than k + readAheadCap for every k
	for _, b := range []Backend{BackendSim, BackendLive, BackendNet} {
		for _, k := range []int{3, 5, 10, 40} {
			t.Run(fmt.Sprintf("%v/k=%d", b, k), func(t *testing.T) {
				var sum atomic.Uint64
				_, st := runRanks(t, b, func(c *Config) { c.TotalCores, c.ServiceCores = 4, 1 }, func(s *System) func(rt *Runtime) {
					a := NewTArray(s, Uint64Codec(), n, 7)
					scanner := firstApp(s)
					return func(rt *Runtime) {
						if rt.Core() != scanner {
							return
						}
						rt.Run(func(tx *Tx) {
							for j := k - 2; j >= 0; j-- {
								a.Get(tx, j)
							}
							var got uint64
							for j := range k {
								got += a.Get(tx, j)
							}
							sum.Store(got)
						})
					}
				})
				if got := sum.Load(); got != 7*uint64(k) {
					t.Errorf("the scan saw %d, want %d", got, 7*k)
				}
				bound := uint64(min(k*k, readAheadCap))
				if st.ReadAheadUnused > bound || st.ReadAheadUnused != st.ReadAheadKeys {
					t.Errorf("%d keys read ahead, %d never read; want every one unread, at most min(k², %d) = %d",
						st.ReadAheadKeys, st.ReadAheadUnused, readAheadCap, bound)
				}
				if st.ReadAheadUnused == 0 {
					t.Error("the k-th element's miss read nothing ahead")
				}
			})
		}
	}
}

// TestReadAheadBypass: every read that is not the third or later element of
// a forward run of TArray.Get in a Normal or ReadOnly visible transaction
// sends what it sent before reads were batched: one single-key lock request
// per first read — a read lock, or the write lock of a read for update
// (the transfer row, from its third commit) — and none under elastic-read or
// TL2.
func TestReadAheadBypass(t *testing.T) {
	const n = 64
	rows := []struct {
		name  string
		proto Protocol
		body  func(rt *Runtime, a TArray[uint64])
		reqs  uint64
	}{
		{name: "transfer", reqs: 2 * (n - 1), body: func(rt *Runtime, a TArray[uint64]) {
			for i := range n - 1 {
				rt.Run(func(tx *Tx) {
					f, to := a.Get(tx, i), a.Get(tx, i+1)
					a.Set(tx, i, f-1)
					a.Set(tx, i+1, to+1)
				})
			}
		}},
		{name: "reverse", reqs: n, body: func(rt *Runtime, a TArray[uint64]) {
			rt.Run(func(tx *Tx) {
				for i := n - 1; i >= 0; i-- {
					a.Get(tx, i)
				}
			})
		}},
		{name: "stride2", reqs: n / 2, body: func(rt *Runtime, a TArray[uint64]) {
			rt.Run(func(tx *Tx) {
				for i := 0; i < n; i += 2 {
					a.Get(tx, i)
				}
			})
		}},
		{name: "elastic-early", reqs: n, body: func(rt *Runtime, a TArray[uint64]) {
			rt.RunKind(ElasticEarly, func(tx *Tx) {
				for i := range n {
					a.Get(tx, i)
				}
			})
		}},
		{name: "elastic-read", reqs: 0, body: func(rt *Runtime, a TArray[uint64]) {
			rt.RunKind(ElasticRead, func(tx *Tx) {
				for i := range n {
					a.Get(tx, i)
				}
			})
		}},
		{name: "tl2", proto: ProtocolTL2, reqs: 0, body: func(rt *Runtime, a TArray[uint64]) {
			rt.Run(func(tx *Tx) {
				for i := range n {
					a.Get(tx, i)
				}
			})
		}},
		{name: "at-get", reqs: n, body: func(rt *Runtime, a TArray[uint64]) {
			rt.Run(func(tx *Tx) {
				for i := range n {
					a.At(i).Get(tx)
				}
			})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var multi atomic.Uint64
			watchLocks(t, func(_ int, ks []mem.Addr) {
				if len(ks) > 1 {
					multi.Add(1)
				}
			})
			_, st := runRanks(t, BackendSim, func(c *Config) { c.Protocol = row.proto }, func(s *System) func(rt *Runtime) {
				a := NewTArray(s, Uint64Codec(), n, 7)
				scanner := firstApp(s)
				return func(rt *Runtime) {
					if rt.Core() == scanner {
						row.body(rt, a)
					}
				}
			})
			if reqs := st.ReadLockReqs + st.UpdateReads; reqs != row.reqs || st.ReadAheadKeys != 0 || multi.Load() != 0 {
				t.Errorf("%d lock requests at first reads (%d for update), %d multi-key, %d keys read ahead; want %d, none, none",
					reqs, st.UpdateReads, multi.Load(), st.ReadAheadKeys, row.reqs)
			}
		})
	}
}

// firstBatch returns the index, in an n-element array, of the first element
// an uncontended forward scan under cfg locks ahead of the run, and the
// index of the element whose miss asked for it.
func firstBatch(t *testing.T, mut func(*Config), n int) (ahead, missed int) {
	t.Helper()
	ahead, missed = -1, -1
	var base mem.Addr
	watchLocks(t, func(_ int, ks []mem.Addr) {
		if ahead < 0 && len(ks) > 1 {
			ahead, missed = int(ks[1]-base), int(ks[0]-base)
		}
	})
	runRanks(t, BackendSim, mut, func(s *System) func(rt *Runtime) {
		a := NewTArray(s, Uint64Codec(), n, 7)
		base = a.Addr(0)
		scanner := firstApp(s)
		return func(rt *Runtime) {
			if rt.Core() == scanner {
				rt.Run(func(tx *Tx) {
					for i := range n {
						a.Get(tx, i)
					}
				})
			}
		}
	})
	lockSent = nil
	if ahead < 0 {
		t.Fatal("the scan never batched a read lock")
	}
	return ahead, missed
}

// TestReadAheadNackAbortsWithoutLeak: under FairCM a scan whose batched
// request meets a write lock on an element ahead of the one it missed loses
// to the older writer at that node, aborts, and leaves nothing locked: the
// node's grant is all or nothing. The retry after the writer commits sees
// the exact total.
func TestReadAheadNackAbortsWithoutLeak(t *testing.T) {
	const n = 64
	mut := func(c *Config) { c.Acquire = Eager }
	ahead, missed := firstBatch(t, mut, n)
	var (
		held, lost   atomic.Bool
		last, nacked []mem.Addr
		sum          uint64
	)
	watchLocks(t, func(_ int, ks []mem.Addr) { last = append(last[:0], ks...) })
	var a TArray[uint64]
	_, st := runRanks(t, BackendSim, mut, func(s *System) func(rt *Runtime) {
		a = NewTArray(s, Uint64Codec(), n, 7)
		app := s.AppCores()
		slices.Sort(app)
		writer, scanner := app[0], app[1] // FairCM breaks the tie of two fresh cores by core ID
		return func(rt *Runtime) {
			switch rt.Core() {
			case writer:
				rt.Run(func(tx *Tx) {
					a.Set(tx, ahead, a.Get(tx, ahead)) // eager: the write lock is held from here
					held.Store(true)
					for !lost.Load() {
						pauseServing(rt)
					}
				})
			case scanner:
				for !held.Load() {
					pauseServing(rt)
				}
				rt.Run(func(tx *Tx) {
					tx.OnAbort(func() {
						if !lost.Swap(true) {
							nacked = slices.Clone(last)
						}
					})
					sum = 0
					for i := range n {
						sum += a.Get(tx, i)
					}
				})
			}
		}
	})
	if !slices.Contains(nacked, a.Addr(ahead)) || nacked[0] != a.Addr(missed) {
		t.Fatalf("the first abort followed request %v; want the batch for element %d holding element %d", nacked, missed, ahead)
	}
	if st.AbortsByKind[cm.RAW] == 0 {
		t.Errorf("no RAW abort (aborts by kind %v)", st.AbortsByKind)
	}
	if sum != 7*n {
		t.Errorf("the committed scan saw %d, want %d", sum, 7*n)
	}
}

// TestReadAheadStaleFallsBack: under hier placement, a batched request that
// reaches a node whose stripe for one of the elements ahead began migrating
// as the request left is NACKed stale; the scan resends the missed element
// alone, reads the moved element later from its new owner, and commits at
// the first attempt.
func TestReadAheadStaleFallsBack(t *testing.T) {
	const n = 64
	mut := func(c *Config) {
		c.TotalCores, c.ServiceCores = 4, 2
		c.Placement = placement.AdaptiveHier
		c.RepartitionEpoch = 1 << 30 // no automatic rounds; the test drives the move
	}
	ahead, missed := firstBatch(t, mut, n)
	var (
		a    TArray[uint64]
		sys  *System
		reqs [][]mem.Addr
		sum  uint64
	)
	watchLocks(t, func(_ int, ks []mem.Addr) {
		reqs = append(reqs, slices.Clone(ks))
		if ks[0] == a.Addr(missed) && slices.Contains(ks, a.Addr(ahead)) {
			dir, k := sys.Placement(), a.Addr(ahead)
			if !dir.InitiateMove(dir.StripeOf(k), (dir.Owner(k)+1)%sys.NumServiceCores()) {
				t.Error("InitiateMove refused")
			}
		}
	})
	_, st := runRanks(t, BackendSim, mut, func(s *System) func(rt *Runtime) {
		a, sys = NewTArray(s, Uint64Codec(), n, 7), s
		scanner := firstApp(s)
		return func(rt *Runtime) {
			if rt.Core() == scanner {
				rt.Run(func(tx *Tx) {
					sum = 0
					for i := range n {
						sum += a.Get(tx, i)
					}
				})
			}
		}
	})
	if st.Aborts != 0 || st.PlacementAborts != 0 || st.StaleNacks == 0 || st.Handoffs != 1 {
		t.Fatalf("%d aborts (%d for placement), %d stale NACKs, %d handoffs; want none, none, some, 1",
			st.Aborts, st.PlacementAborts, st.StaleNacks, st.Handoffs)
	}
	fellBack := false
	for i, r := range reqs[:len(reqs)-1] {
		if r[0] == a.Addr(missed) && slices.Contains(r, a.Addr(ahead)) {
			fellBack = slices.Equal(reqs[i+1], r[:1])
		}
	}
	if !fellBack {
		t.Errorf("no single-key resend of element %d after its batch was NACKed: %v", missed, reqs)
	}
	if sum != 7*n {
		t.Errorf("the scan saw %d, want %d", sum, 7*n)
	}
}

// TestReadAheadTimeoutReleasesBatch: on net, a batched request whose node
// stalls past the RPC deadline aborts the scan with every key of the batch
// recorded as held, so the abort's release to that node covers all of them
// whether or not the late grant took them. The late grant itself is dropped
// when the core next drains its mailbox, and both ranks drain empty.
func TestReadAheadTimeoutReleasesBatch(t *testing.T) {
	const (
		n        = 64
		deadline = 200 * time.Millisecond
	)
	var (
		stallCore          atomic.Int64 // the core whose node stops serving (-1: none yet)
		stalled, done      atomic.Bool
		batch, released    []mem.Addr
		stallNode, scanned = -1, uint64(0)
		rank0              *System
	)
	stallCore.Store(-1)
	watchLocks(t, func(node int, ks []mem.Addr) {
		c := rank0.nodes[node].core
		if len(ks) < 2 || rank0.rankOf(c) != 1 || stallNode >= 0 {
			return
		}
		stallNode, batch = node, slices.Clone(ks)
		stallCore.Store(int64(c))
		for !stalled.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	})
	releaseSent = func(node int, msg *relLocks) {
		if node == stallNode && released == nil {
			released = slices.Clone(msg.ReadAddrs)
		}
	}
	t.Cleanup(func() { releaseSent = nil })
	_, st := runRanks(t, BackendNet, func(c *Config) {
		c.TotalCores, c.Deployment, c.RPCDeadline = 4, Multitask, deadline
	}, func(s *System) func(rt *Runtime) {
		a := NewTArray(s, Uint64Codec(), n, 7)
		if s.cfg.Net.Rank == 0 {
			rank0 = s
		}
		scanner := firstApp(s)
		return func(rt *Runtime) {
			switch {
			case rt.Core() == scanner:
				// The second scan begins at a transaction boundary that
				// finds the late grant of the timed-out batch queued.
				for range 2 {
					rt.Run(func(tx *Tx) {
						scanned = 0
						for i := range n {
							scanned += a.Get(tx, i)
						}
					})
				}
				done.Store(true)
			case s.rankOf(rt.Core()) == 1:
				for !done.Load() {
					if stallCore.Load() == int64(rt.Core()) && !stalled.Load() {
						stalled.Store(true)
						time.Sleep(deadline * 3 / 2) // serve nothing
					}
					pauseServing(rt)
				}
			}
		}
	})
	if batch == nil {
		t.Fatal("the scan sent no batched request to a rank-1 node")
	}
	if st.RPCTimeouts == 0 || st.AbortReasons[trace.ReasonTimeout] == 0 {
		t.Fatalf("%d RPC timeouts, %d timeout aborts; want at least one", st.RPCTimeouts, st.AbortReasons[trace.ReasonTimeout])
	}
	for _, k := range batch {
		if !slices.Contains(released, k) {
			t.Errorf("the abort's release to node %d (%v) misses key %#x of the timed-out batch %v", stallNode, released, uint64(k), batch)
		}
	}
	if scanned != 7*n {
		t.Errorf("the committed scan saw %d, want %d", scanned, 7*n)
	}
}

// TestCarriedReleaseResentOnTimeout: on net, a lock request that times out
// while carrying a release may have been lost with it, so the core sends
// that release again on its own before the abort unwinds. A release is
// idempotent: the node frees nothing twice.
func TestCarriedReleaseResentOnTimeout(t *testing.T) {
	const deadline = 200 * time.Millisecond
	var (
		stallCore      atomic.Int64 // the core whose node stops serving (-1: none yet)
		stalled, done  atomic.Bool
		firstTx, sends atomic.Uint64 // the first attempt, and its releases that left
		carried        atomic.Bool   // the first of them rode a lock request
	)
	stallCore.Store(-1)
	lockSent = func(_ int, req *reqLock) {
		if req.Rel != nil && req.Rel.TxID == firstTx.Load() {
			carried.Store(true)
		}
	}
	releaseSent = func(_ int, msg *relLocks) {
		if msg.TxID == firstTx.Load() {
			sends.Add(1)
		}
	}
	t.Cleanup(func() { lockSent, releaseSent = nil, nil })
	_, st := runRanks(t, BackendNet, func(c *Config) {
		c.TotalCores, c.Deployment, c.RPCDeadline = 4, Multitask, deadline
	}, func(s *System) func(rt *Runtime) {
		words := s.Mem.Alloc(64, 0)
		key := words
		for s.rankOf(s.nodes[s.nodeFor(key)].core) != 1 {
			key++ // a key whose DTM node serves on rank 1
		}
		node := s.nodes[s.nodeFor(key)].core
		xfer := firstApp(s)
		return func(rt *Runtime) {
			switch {
			case rt.Core() == xfer:
				rt.Run(func(tx *Tx) {
					firstTx.Store(tx.ID())
					tx.Write(key, 1)
				})
				// The release stays in the carry while the node stalls.
				stallCore.Store(int64(node))
				for !stalled.Load() {
					pauseServing(rt)
				}
				rt.Run(func(tx *Tx) { tx.Write(key, tx.Read(key)+1) })
				done.Store(true)
			case s.rankOf(rt.Core()) == 1:
				for !done.Load() {
					if stallCore.Load() == int64(rt.Core()) && !stalled.Load() {
						stalled.Store(true)
						time.Sleep(deadline * 3 / 2) // serve nothing
					}
					pauseServing(rt)
				}
			}
		}
	})
	if st.RPCTimeouts == 0 {
		t.Fatal("no lock request timed out")
	}
	if !carried.Load() {
		t.Error("the first attempt's release did not ride the timed-out request")
	}
	if n := sends.Load(); n != 2 {
		t.Errorf("the first attempt's release left %d times, want 2: carried, then on its own after the timeout", n)
	}
}

// TestReadAheadAuditedMix: a TArray mix of full scans (Normal and
// ReadOnly) and transfers passes the sim's opacity audit under every
// starvation-free policy and OffsetGreedy, while the scans batch.
func TestReadAheadAuditedMix(t *testing.T) {
	const accounts = 48
	for _, p := range []cm.Policy{cm.Wholly, cm.FairCM, cm.OffsetGreedy} {
		t.Run(p.String(), func(t *testing.T) {
			s := testSystem(t, func(c *Config) { c.Policy = p })
			s.EnableAudit()
			a := NewTArray(s, Uint64Codec(), accounts, 100)
			initial := make(map[mem.Addr]uint64)
			for i := range accounts {
				initial[a.Addr(i)] = 100
			}
			s.SpawnWorkers(func(rt *Runtime) {
				r := rt.Rand()
				for i := range 30 {
					if i%5 == 0 {
						kind := []TxKind{Normal, ReadOnly}[i/5%2]
						rt.RunKind(kind, func(tx *Tx) {
							var sum uint64
							for j := range accounts {
								sum += a.Get(tx, j)
							}
							if sum != 100*accounts {
								t.Errorf("scan saw %d", sum)
							}
						})
						continue
					}
					from := r.Intn(accounts)
					to := (from + 1 + r.Intn(accounts-1)) % accounts
					rt.Run(func(tx *Tx) {
						f, tv := a.Get(tx, from), a.Get(tx, to)
						a.Set(tx, from, f-1)
						a.Set(tx, to, tv+1)
					})
				}
			})
			st := s.RunToCompletion()
			if st.ReadAheadKeys == 0 {
				t.Error("no scan read ahead")
			}
			if err := s.CheckAudit(initial); err != nil {
				t.Fatalf("serializability violated: %v", err)
			}
			if n := s.LockedAddrs(); n != 0 {
				t.Errorf("%d addresses still locked", n)
			}
		})
	}
}

// TestShardsMergeReadAhead: the read-ahead and read-for-update counters are
// kept per runtime and summed at the snapshot, like WinnerWaits.
func TestShardsMergeReadAhead(t *testing.T) {
	var st Stats
	for _, sh := range []Stats{
		{ReadAheadKeys: 40, ReadAheadUnused: 3, UpdateReads: 10, UpdateReadsUnwritten: 1},
		{},
		{ReadAheadKeys: 2, ReadAheadUnused: 1, UpdateReads: 6, UpdateReadsUnwritten: 2},
	} {
		st.addShard(&sh)
	}
	if st.ReadAheadKeys != 42 || st.ReadAheadUnused != 4 {
		t.Fatalf("merged %d keys read ahead, %d unused; want 42, 4", st.ReadAheadKeys, st.ReadAheadUnused)
	}
	if st.UpdateReads != 16 || st.UpdateReadsUnwritten != 3 {
		t.Fatalf("merged %d reads for update, %d unwritten; want 16, 3", st.UpdateReads, st.UpdateReadsUnwritten)
	}
}
