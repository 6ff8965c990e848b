package net_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// netAllocBudget bounds the heap allocations of one committed bank transfer
// with every rank's share counted. The 8.0 it measures are the protocol
// itself — the decoded lock requests, grants and releases with their address
// slices, which a receiver keeps — not the transport: the frame reader, the
// decoder, the encoders and the state-call slots are all reused. With the
// transport allocating per frame and per state call this measured 48, so a
// single allocation back on that path overruns the headroom.
const netAllocBudget = 12

// TestNetBankAllocBudget is internal/live's measureLiveAllocs on the net
// backend: two in-process ranks over one unix socket, as bench's net-bank
// runs it, every worker transferring between two accounts
// of its own so that no attempt aborts. Workers warm every pool and scratch
// buffer up, meet at a cross-rank barrier, and the Mallocs delta of the
// whole process (both ranks: a frame's sender and its reader) is taken
// across a measured batch.
func TestNetBankAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	const ranks, warmup, measured = 2, 400, 600
	addrs := unixAddrs(t.TempDir(), ranks)
	var m1, m2 runtime.MemStats
	var workers int
	var commits uint64
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := netConfig(r, ranks, addrs)
			cfg.Trace = nil
			_, _, errs[r] = runOneRank(netApp{run: func(s *core.System) (*core.Stats, func() error) {
				accts := core.NewTArray(s, core.Uint64Codec(), 2*s.NumAppCores(), 100)
				s.SpawnWorkers(func(rt *core.Runtime) {
					i := rt.AppIndex()
					transfer := func(tx *core.Tx) {
						f, v := accts.Get(tx, 2*i), accts.Get(tx, 2*i+1)
						accts.Set(tx, 2*i, f-1)
						accts.Set(tx, 2*i+1, v+1)
					}
					for n := 0; n < warmup; n++ {
						rt.Run(transfer)
					}
					rt.Barrier()
					if i == 0 {
						runtime.GC()
						runtime.ReadMemStats(&m1)
					}
					rt.Barrier()
					for n := 0; n < measured; n++ {
						rt.Run(transfer)
					}
					rt.Barrier()
					if i == 0 {
						runtime.ReadMemStats(&m2)
					}
				})
				st := s.RunToCompletion()
				if r == 0 {
					workers, commits = s.NumAppCores(), st.Commits
				}
				return st, func() error { return nil }
			}}, cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := uint64(workers * (warmup + measured)); commits < want {
		t.Fatalf("commits %d < %d: disjoint accounts should never abort", commits, want)
	}
	got := float64(m2.Mallocs-m1.Mallocs) / float64(workers*measured)
	t.Logf("net bank transfer: %.2f allocs/tx", got)
	if got > netAllocBudget {
		t.Errorf("net bank transfer allocates %.2f objects/tx over both ranks, budget %d", got, netAllocBudget)
	}
}
