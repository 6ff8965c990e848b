package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/trace"
)

// refDraft drafts a finished attempt's releases from its final read set and
// write locks, resolved under place, the way releaseAll drafted every
// message at the attempt's end before releases were kept as lock sets: one
// message per DTM node, nodes in first-use order, read locks first (blocks
// in first-touch order, keys ascending within a block), then write locks in
// acquisition order.
func refDraft(core int, txID uint64, held *blockSet, wlocked []mem.Addr, place placement.Snapshot) ([]int, map[int]*relLocks) {
	var nodes []int
	msgs := map[int]*relLocks{}
	msgFor := func(k mem.Addr) *relLocks {
		n := place.Owner(k)
		if msgs[n] == nil {
			nodes = append(nodes, n)
			msgs[n] = &relLocks{Core: core, TxID: txID}
		}
		return msgs[n]
	}
	for k := range held.readLocked() {
		m := msgFor(k)
		m.ReadAddrs = append(m.ReadAddrs, k)
	}
	for _, k := range wlocked {
		m := msgFor(k)
		m.WriteAddrs = append(m.WriteAddrs, k)
	}
	return nodes, msgs
}

// TestReleaseDraftedAtSend: a finished attempt's release, drafted from its
// lock set when it leaves, is the release a reference drafts from the
// attempt's final read set and write locks at its end, under the lock
// set's placement snapshot: every release that leaves goes to the node the
// reference names, with the same keys in the same order and the same
// modeled size, and every release the reference drafts leaves exactly
// once. The attempts mix read-ahead scans, transfers whose reads turn into
// reads for update, elastic-early reads with early releases, eager blind
// writes and user aborts after locking, under contention that aborts
// commits between their write-lock batches; under hier placement the test
// moves the stripes of keys whose releases are carried, so some release
// leaves for a node that no longer owns its keys, as its snapshot says.
func TestReleaseDraftedAtSend(t *testing.T) {
	errWithdraw := errors.New("withdrawn")
	for _, place := range []placement.Kind{placement.Hash, placement.AdaptiveHier} {
		for _, acq := range []AcquireMode{Lazy, Eager} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%v/%v/seed%d", place, acq, seed), func(t *testing.T) {
					s, err := NewSystem(Config{
						Platform: noc.SCC(0), Seed: seed, TotalCores: 12, ServiceCores: 4,
						Policy: cm.FairCM, Acquire: acq, Placement: place, RepartitionEpoch: 1 << 30,
					})
					if err != nil {
						t.Fatal(err)
					}
					var violations, matched, carried, early, stale int
					violate := func(format string, args ...any) {
						if violations++; violations <= 5 {
							t.Errorf(format, args...)
						}
					}
					type relKey struct {
						core int
						txID uint64
						node int
					}
					expect := map[relKey]*relLocks{}
					ended := map[[2]uint64]bool{}
					releaseSent = func(node int, msg *relLocks) {
						for _, k := range slices.Concat(msg.ReadAddrs, msg.WriteAddrs) {
							if s.dir.Owner(k) != node {
								stale++
							}
						}
						key := relKey{msg.Core, msg.TxID, node}
						want := expect[key]
						if want == nil {
							if ended[[2]uint64{uint64(msg.Core), msg.TxID}] {
								violate("core %d sent attempt %d's release to node %d, which the reference does not name (or names once)", msg.Core, msg.TxID, node)
							}
							early++ // an early release of a running attempt
							return
						}
						delete(expect, key)
						matched++
						if !slices.Equal(msg.ReadAddrs, want.ReadAddrs) || !slices.Equal(msg.WriteAddrs, want.WriteAddrs) || msg.bytes() != want.bytes() {
							violate("core %d attempt %d's release to node %d: reads %v writes %v (%d B), want %v %v (%d B)",
								msg.Core, msg.TxID, node, msg.ReadAddrs, msg.WriteAddrs, msg.bytes(), want.ReadAddrs, want.WriteAddrs, want.bytes())
						}
					}
					lockSent = func(_ int, req *reqLock) {
						if req.Rel != nil {
							carried++
						}
					}
					t.Cleanup(func() { releaseSent, lockSent = nil, nil })
					// end, an attempt's commit or abort hook, records the
					// reference's releases of the attempt, from its read set
					// and write locks and the snapshot of the lock set the
					// carry holds for it, and checks that the carry holds one
					// entry per node the reference names, in the same order.
					end := func(tx *Tx) func() {
						return func() {
							rt := tx.rt
							ended[[2]uint64{uint64(rt.core), tx.id}] = true
							var ls *lockSet
							var nodes []int
							for _, d := range rt.carry {
								if d.set != nil && d.set.txID == tx.id {
									ls = d.set
									nodes = append(nodes, d.node)
								}
							}
							if ls == nil {
								if n, _ := refDraft(rt.core, tx.id, &tx.held, tx.wlocked, s.dir.Snapshot()); len(n) > 0 {
									violate("core %d attempt %d ended holding locks at %v and the carry keeps none", rt.core, tx.id, n)
								}
								return
							}
							refNodes, ref := refDraft(rt.core, tx.id, &tx.held, tx.wlocked, ls.place)
							if !slices.Equal(nodes, refNodes) {
								violate("core %d attempt %d: the carry keeps releases for nodes %v, the reference drafts %v", rt.core, tx.id, nodes, refNodes)
							}
							for n, m := range ref {
								expect[relKey{rt.core, tx.id, n}] = m
							}
						}
					}
					const accounts = 256
					accts := NewTArray(s, Uint64Codec(), accounts, 100)
					dir := s.Placement()
					s.SpawnWorkers(func(rt *Runtime) {
						r := rt.Rand()
						var a, b, c, from, n int
						hooks := func(tx *Tx) {
							tx.OnCommit(end(tx))
							tx.OnAbort(end(tx))
						}
						scan := func(tx *Tx) {
							hooks(tx)
							for i := from; i < from+n; i++ {
								accts.Get(tx, i)
							}
						}
						transfer := func(tx *Tx) {
							hooks(tx)
							f, v := accts.Get(tx, a), accts.Get(tx, b)
							accts.Set(tx, a, f-1)
							accts.Set(tx, b, v+1)
						}
						earlyRel := func(tx *Tx) {
							hooks(tx)
							accts.Get(tx, a)
							tx.EarlyRelease(accts.Addr(a))
							accts.Set(tx, c, accts.Get(tx, b))
						}
						blind := func(tx *Tx) {
							hooks(tx)
							accts.Set(tx, a, 1)
							accts.Set(tx, c, 2)
							accts.Get(tx, b)
						}
						withdraw := func(tx *Tx) error {
							hooks(tx)
							accts.Get(tx, a)
							accts.Set(tx, c, accts.Get(tx, b))
							return errWithdraw
						}
						for op := 0; op < 40; op++ {
							a, b, c = r.Intn(accounts), r.Intn(accounts), r.Intn(accounts)
							from = r.Intn(accounts - 64)
							n = 3 + r.Intn(60)
							switch k := r.Intn(10); {
							case k < 2:
								rt.RunReadOnly(scan)
							case k < 3:
								rt.Run(scan)
							case k < 6:
								if a != b {
									rt.Run(transfer)
								}
							case k < 7:
								rt.RunKind(ElasticEarly, earlyRel)
							case k < 8:
								rt.Run(blind)
							default:
								if err := rt.Atomic(withdraw); err != errWithdraw {
									t.Errorf("withdrawn transaction returned %v", err)
								}
							}
							// Move the stripe of a key whose release the
							// carry may still hold.
							if place == placement.AdaptiveHier && rt.AppIndex() == 0 && op%4 == 3 {
								st := dir.StripeOf(accts.Addr(a))
								dir.InitiateMove(st, (dir.StripeOwner(st)+1)%len(s.nodes))
							}
						}
					})
					st := s.RunToCompletion()
					t.Logf("%d releases checked (%d carried, %d early), %d keys released to a former owner, %d conflict aborts, %d reads for update, %d handoffs",
						matched, carried, early, stale, st.AbortReasons[trace.ReasonConflict], st.UpdateReads, st.Handoffs)
					for k := range expect {
						violate("core %d attempt %d's release to node %d never left", k.core, k.txID, k.node)
					}
					if matched == 0 || carried == 0 || early == 0 {
						t.Errorf("%d releases checked, %d carried, %d early: want some of each", matched, carried, early)
					}
					if st.AbortReasons[trace.ReasonConflict] == 0 || st.UpdateReads == 0 {
						t.Errorf("%d conflict aborts, %d reads for update: want some of each", st.AbortReasons[trace.ReasonConflict], st.UpdateReads)
					}
					if place == placement.AdaptiveHier && (st.Handoffs == 0 || stale == 0) {
						t.Errorf("%d handoffs, %d released keys sent to a node that no longer owned them: want some of each", st.Handoffs, stale)
					}
					if leaked := s.LockedAddrs(); leaked != 0 {
						t.Errorf("%d locks leaked", leaked)
					}
				})
			}
		}
	}
}

// lockSetBytes is the storage a lock set keeps: the set itself and what
// its two slices hold outside it.
func lockSetBytes(ls *lockSet) int {
	n := int(unsafe.Sizeof(*ls))
	if unsafe.SliceData(ls.reads) != &ls.inReads[0] {
		n += cap(ls.reads) * int(unsafe.Sizeof(lockBlock{}))
	}
	if unsafe.SliceData(ls.wlocked) != &ls.inWrites[0] {
		n += cap(ls.wlocked) * int(unsafe.Sizeof(mem.Addr(0)))
	}
	return n
}

// TestCarryFootprint: after a committed 1,024-key scan over 24 DTM nodes
// the carry holds the scan's releases as 24 entries of one lock set of at
// most 1 KB, and no message: a release is drafted when it leaves. Once the
// next scan's requests have carried every node's release, the set is back
// on the runtime's free list. The live row also runs in CI's -race step,
// the net row in the net job's.
func TestCarryFootprint(t *testing.T) {
	const keys = 1024
	for _, backend := range []Backend{BackendSim, BackendLive, BackendNet} {
		t.Run(backend.String(), func(t *testing.T) {
			runRanks(t, backend, func(c *Config) { c.TotalCores = 48 }, func(s *System) func(rt *Runtime) {
				arr := NewTArray(s, Uint64Codec(), keys, 1)
				return func(rt *Runtime) {
					if rt.Core() != firstApp(s) {
						return
					}
					scan := func(tx *Tx) {
						for i := range keys {
							arr.Get(tx, i)
						}
					}
					rt.Run(scan)
					if len(rt.carry) != len(s.nodes) {
						t.Errorf("the carry holds %d releases after the scan, want one per DTM node (%d)", len(rt.carry), len(s.nodes))
						return
					}
					ls := rt.carry[0].set
					for _, d := range rt.carry {
						if d.msg != nil || d.set != ls {
							t.Errorf("node %d's carried release is a message (%v) or another set (%v): want the scan's lock set alone", d.node, d.msg != nil, d.set != ls)
						}
					}
					size := lockSetBytes(ls)
					t.Logf("the carry holds a %d-key scan's releases to %d nodes in %d B (%d read blocks)", keys, len(rt.carry), size, cap(ls.reads))
					if size > 1<<10 {
						t.Errorf("the carried lock set keeps %d B, want <= 1 KB", size)
					}
					rt.Run(func(tx *Tx) {
						scan(tx)
						if len(rt.carry) != 0 || len(rt.riding) != 0 {
							t.Errorf("the second scan's requests left %d releases carried and %d riding, want none", len(rt.carry), len(rt.riding))
						}
						if !slices.Contains(rt.lockSets, ls) {
							t.Error("the first scan's lock set is not back on the free list once every release left")
						}
					})
				}
			})
		})
	}
}
