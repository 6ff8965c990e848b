package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/port"
)

// TestFinishedHolderNeverWins: under NoCM, where a requester loses every
// conflict it is judged in, a transfer's commit loses WAR to a reader whose
// attempt is still running, and wins against the same reader once that
// attempt has committed, at a DTM node with nothing else queued, although
// the reader's core still withholds the release: it pauses after the commit
// and sends nothing, so the release stays in its carry. The transfer's
// retry starts once the reader has committed, so it commits on exactly its
// second attempt. Without the DTM's finished-holder rule the second attempt
// would lose too, and every retry after it, until the reader gave up
// waiting. The live row also runs in CI's -race step, the net row in the
// net job's.
func TestFinishedHolderNeverWins(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendLive, BackendNet} {
		t.Run(backend.String(), func(t *testing.T) {
			giveUp := byBackend(backend, 2*time.Millisecond, 200*time.Millisecond)
			var (
				held     atomic.Bool // the reader holds its read lock
				lost     atomic.Bool // the transfer has lost to the running reader
				finished atomic.Bool // the reader has committed
				done     atomic.Bool // the transfer has committed
				attempts atomic.Int64
				lostTo   atomic.Int64 // the reader's state when the transfer lost
			)
			runRanks(t, backend, func(c *Config) {
				c.TotalCores, c.Policy = 4, cm.NoCM
			}, func(s *System) func(rt *Runtime) {
				acct := s.Mem.Alloc(1, 0)
				app := s.AppCores()
				slices.Sort(app)
				readerCore, xferCore := app[0], app[1]
				return func(rt *Runtime) {
					switch rt.Core() {
					case readerCore:
						rt.RunReadOnly(func(tx *Tx) {
							tx.Read(acct)
							held.Store(true)
							for end := rt.proc.Now() + giveUp; !lost.Load() && rt.proc.Now() < end; {
								pauseServing(rt)
							}
						})
						finished.Store(true)
						// The release waits in the carry: a pause sends
						// nothing.
						for end := rt.proc.Now() + giveUp; !done.Load() && rt.proc.Now() < end; {
							pauseServing(rt)
						}
					case xferCore:
						for !held.Load() {
							pauseServing(rt)
						}
						n := rt.Run(func(tx *Tx) {
							for lost.Load() && !finished.Load() {
								pauseServing(rt) // the retry starts once the reader has finished
							}
							tx.OnAbort(func() {
								if !lost.Load() {
									_, _, st := rt.s.Regs.CASStatusRemoteObserve(rt.proc, rt.core, readerCore, 0, mem.TxFree, mem.TxFree)
									lostTo.Store(int64(st))
								}
								lost.Store(true)
							})
							tx.Write(acct, tx.Read(acct)+1)
						})
						attempts.Store(int64(n))
						done.Store(true)
					}
				}
			})
			if got := mem.TxState(lostTo.Load()); got != mem.TxPending {
				t.Errorf("the transfer's first loss met a reader in state %v, want Pending", got)
			}
			if n := attempts.Load(); n != 2 {
				t.Errorf("transfer took %d attempts, want 2: one lost to the running reader, one granted over its finished attempt", n)
			}
		})
	}
}

// TestEndedWatermark: a DTM node that has learned an attempt ended clears
// that attempt's other locks at first sight, without a register read or a
// NACK, even while a backlog waits behind the request. An attempt that
// cannot exist (attempt 5 of a core that runs nothing, whose status register
// shows no attempt) write-locks two keys at one node. Under NoCM, where a
// requester loses every conflict it is judged in, a reader reads both keys
// in one transaction: the node serves its first request idle, reading the
// holder's register once (revokeFinished), and its second one marked busy,
// as a backlog would mark it (dtmNode.busy), where only the watermark can
// clear the second lock (revokeKnown). The reader then holds both keys while
// a writer of the first key loses to it: a running attempt's lock is never
// cleared as ended. The live row also runs in CI's -race step, the net row
// in the net job's.
func TestEndedWatermark(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendLive, BackendNet} {
		t.Run(backend.String(), func(t *testing.T) {
			const endedTx = 5
			giveUp := byBackend(backend, 2*time.Millisecond, 200*time.Millisecond)
			var (
				reads    [2]atomic.Int64 // the node's register reads after each request
				known    [2]atomic.Int64 // its watermark answers after each request
				held     atomic.Bool     // the reader holds both keys
				lost     atomic.Bool     // the writer has lost to the running reader
				finished atomic.Bool     // the reader has committed
				readerN  atomic.Int64    // the reader's attempts
				resends  atomic.Int64    // the reader's requests resent past an ended winner
				writerN  atomic.Int64    // the writer's attempts
				readerTo atomic.Int64    // the reader's state when the writer lost
			)
			runRanks(t, backend, func(c *Config) {
				c.TotalCores, c.Policy, c.Deployment = 4, cm.NoCM, Multitask
			}, func(s *System) func(rt *Runtime) {
				pool := s.Mem.Alloc(16, 0)
				a, ni := pool, s.nodeFor(pool)
				b := a + 1
				for s.nodeFor(b) != ni {
					b++
				}
				n := s.nodes[ni]
				// The holder, reader and writer apart from the node's core,
				// and on net the reader on the other rank.
				ended, reader, writer := (n.core+1)%4, (n.core+2)%4, (n.core+3)%4
				if s.localCore(n.core) {
					for _, k := range []mem.Addr{a, b} {
						n.table.SetWriter(k, cm.Meta{Core: ended, TxID: endedTx})
					}
				}
				return func(rt *Runtime) {
					switch rt.Core() {
					case reader:
						readerN.Store(int64(rt.Run(func(tx *Tx) {
							tx.Read(a)
							tx.Read(b)
							held.Store(true)
							for end := rt.proc.Now() + giveUp; !lost.Load() && rt.proc.Now() < end; {
								pauseServing(rt)
							}
						})))
						finished.Store(true)
						resends.Store(int64(rt.shard.EndedResends))
					case writer:
						for !held.Load() {
							pauseServing(rt)
						}
						writerN.Store(int64(rt.Run(func(tx *Tx) {
							for lost.Load() && !finished.Load() {
								pauseServing(rt) // the retry starts once the reader has finished
							}
							tx.OnAbort(func() {
								if !lost.Load() {
									_, _, st := rt.s.Regs.CASStatusRemoteObserve(rt.proc, rt.core, reader, 0, mem.TxFree, mem.TxFree)
									readerTo.Store(int64(st))
								}
								lost.Store(true)
							})
							tx.Write(a, 1)
						})))
					case n.core:
						for i := range 2 {
							m := rt.proc.Recv() // the reader's request for key i
							n.busy = i == 1
							n.handle(rt.proc, m)
							n.busy = false
							reads[i].Store(int64(n.shard.NodeEndedReads))
							known[i].Store(int64(n.shard.NodeEndedKnown))
						}
					}
				}
			})
			if r0, r1 := reads[0].Load(), reads[1].Load(); r0 != 1 || r1 != r0 {
				t.Errorf("node register reads after the reader's requests: %d, %d; want 1, 1", r0, r1)
			}
			if k := known[1].Load() - known[0].Load(); k < 1 {
				t.Errorf("the busy node answered %d ended checks from its watermark, want at least 1", k)
			}
			if n, r := readerN.Load(), resends.Load(); n != 1 || r != 0 {
				t.Errorf("reader: %d attempts, %d resends; want 1 attempt and no NACK to resend past", n, r)
			}
			if got := mem.TxState(readerTo.Load()); got != mem.TxPending {
				t.Errorf("the writer's first loss met a reader in state %v, want Pending", got)
			}
			if n := writerN.Load(); n != 2 {
				t.Errorf("writer took %d attempts, want 2: one lost to the running reader, one granted over its finished attempt", n)
			}
		})
	}
}

// TestBusyNodeAppliesQueuedRelease: a busy DTM node reads no register, so a
// finished holder's lock wins there, unless the message queued next releases
// that lock: then the node drops it a message early and grants the request
// (dtmNode.releasedNext). The holder is an attempt that cannot exist
// (attempt 5 of a core that runs nothing) reading two keys at one node.
// Under NoCM the writer loses every conflict it is judged in, so it takes
// one attempt when the queued release names its key, and two when it names
// another key or comes from another attempt (the retry meets an idle node,
// which reads the holder's register). The release may be an early release
// of a running attempt, so the watermark learns nothing from it.
func TestBusyNodeAppliesQueuedRelease(t *testing.T) {
	const holderTx = 5
	for _, tc := range []struct {
		name     string
		txID     uint64
		released func(a, b mem.Addr) []mem.Addr
		attempts int
	}{
		{"its-key", holderTx, func(a, b mem.Addr) []mem.Addr { return []mem.Addr{b, a} }, 1},
		{"other-key", holderTx, func(a, b mem.Addr) []mem.Addr { return []mem.Addr{b} }, 2},
		{"other-attempt", holderTx + 1, func(a, b mem.Addr) []mem.Addr { return []mem.Addr{a} }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var attempts int
			var learned uint64
			runRanks(t, BackendSim, func(c *Config) {
				c.TotalCores, c.Policy, c.Deployment = 4, cm.NoCM, Multitask
			}, func(s *System) func(rt *Runtime) {
				a := s.Mem.Alloc(16, 0)
				ni := s.nodeFor(a)
				b := a + 1
				for s.nodeFor(b) != ni {
					b++
				}
				n := s.nodes[ni]
				holder, writer := (n.core+1)%4, (n.core+2)%4
				n.table.AddReader(a, cm.Meta{Core: holder, TxID: holderTx})
				rel := &relLocks{Core: holder, TxID: tc.txID, ReadAddrs: tc.released(a, b)}
				return func(rt *Runtime) {
					switch rt.Core() {
					case writer:
						attempts = rt.Run(func(tx *Tx) { tx.Write(a, 1) })
					case n.core:
						m := rt.proc.Recv() // the writer's first commit request
						n.queued, n.busy = port.Msg{Payload: rel}, true
						n.handle(rt.proc, m)
						n.queued, n.busy = port.Msg{}, false
						learned = n.endedTo[holder]
					}
				}
			})
			if attempts != tc.attempts {
				t.Errorf("writer took %d attempts, want %d", attempts, tc.attempts)
			}
			if learned != 0 {
				t.Errorf("the busy node's watermark learned attempt %d of the holder, want none", learned)
			}
		})
	}
}

// byBackend picks a duration by backend: virtual time on sim, real time on
// live and net.
func byBackend(b Backend, sim, host time.Duration) port.Time {
	if b == BackendSim {
		return port.Time(sim)
	}
	return port.Time(host)
}

// TestCarriedReleaseBound: every lock an attempt held is in a release that
// has left the core — on its own or inside a lock request — before the
// core's next lock request to the lock's node, and before it waits (between
// attempts, for a winner, for a token, at a barrier, in a pause or a
// compute) or exits. A row fails unless some core blocked on a lock
// response while another node's release stayed carried, which a flush after
// rpcLock's send or in the scatter would prevent, and some attempt that held
// locks ended with an earlier attempt's release still carried, which a
// flush in releaseAll would prevent; a TL2 row also fails unless some
// committed attempt that held no lock (a scan) ended so, which a flush at a
// lock-free commit would prevent. Hooks on every release and lock request
// that leaves, on every blocking point and the attempts' own commit and
// abort hooks check it, across transfers, read-ahead scans, elastic-early
// reads, irrevocables, compute, pauses and a barrier, under both protocols
// and both deployments, with back-off and winner waits, on every backend.
// The live rows also run in CI's -race step, the net row in the net job's.
func TestCarriedReleaseBound(t *testing.T) {
	rows := []struct {
		name    string
		backend Backend
		proto   Protocol
		deploy  Deployment
		policy  cm.Policy
	}{
		{"sim/visible/faircm", BackendSim, ProtocolVisible, Dedicated, cm.FairCM},
		{"sim/visible/backoff", BackendSim, ProtocolVisible, Dedicated, cm.BackoffRetry},
		{"sim/visible/multitask", BackendSim, ProtocolVisible, Multitask, cm.Wholly},
		{"sim/tl2/faircm", BackendSim, ProtocolTL2, Dedicated, cm.FairCM},
		{"live/visible/faircm", BackendLive, ProtocolVisible, Dedicated, cm.FairCM},
		{"live/tl2/faircm", BackendLive, ProtocolTL2, Dedicated, cm.FairCM},
		{"net/visible/faircm", BackendNet, ProtocolVisible, Dedicated, cm.FairCM},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// unreleased[core] maps the (attempt, key) locks of the core's
			// finished attempts that no release has carried off yet to the
			// key's DTM node. Each core touches only its own entry, from
			// its own goroutine; on net both ranks share the map.
			var (
				once       sync.Once
				unreleased map[int]map[[2]uint64]int
				tokenCore  atomic.Int64 // the core waiting for tokens, or -1
			)
			tokenCore.Store(-1)
			var violations, releases, kept, lingered, rode atomic.Int64
			violate := func(format string, args ...any) {
				if violations.Add(1) <= 5 {
					t.Errorf(format, args...)
				}
			}
			releaseSent = func(_ int, msg *relLocks) {
				releases.Add(1)
				for _, k := range slices.Concat(msg.ReadAddrs, msg.WriteAddrs) {
					delete(unreleased[msg.Core], [2]uint64{msg.TxID, uint64(k)})
				}
			}
			lockSent = func(node int, req *reqLock) {
				for l, n := range unreleased[req.ReplyTo] {
					if n == node {
						violate("core %d sends a lock request to node %d, where attempt %d's lock on %#x is unreleased", req.ReplyTo, node, l[0], l[1])
						return
					}
				}
			}
			blocking = func(rt *Runtime) {
				left := len(unreleased[rt.core])
				if len(rt.awaitIDs) > 0 && int64(rt.core) != tokenCore.Load() {
					if left > 0 {
						rode.Add(1) // lockSent checked the request's own node
					}
					return
				}
				if left > 0 {
					violate("core %d blocks with %d locks of finished attempts unreleased", rt.core, left)
				}
			}
			t.Cleanup(func() { releaseSent, lockSent, blocking = nil, nil, nil })
			// ended counts, from an attempt's commit or abort hook, the
			// attempts that end with an earlier attempt's locks still
			// carried — kept if the attempt committed without holding a
			// lock, lingered otherwise — and records the locks this one
			// held: what releaseAll drafted for it.
			ended := func(tx *Tx, committed bool) func() {
				return func() {
					rt := tx.rt
					held := unreleased[rt.core]
					lockFree := committed && len(tx.wlocked) == 0 && !rt.s.proto.readsHoldLocks()
					switch {
					case len(held) == 0:
					case lockFree:
						kept.Add(1)
					default:
						lingered.Add(1)
					}
					if rt.s.proto.readsHoldLocks() {
						for _, b := range tx.held.blocks {
							for i := range mem.Addr(64) {
								if b.held&(1<<i) != 0 {
									held[[2]uint64{tx.id, uint64(b.base + i)}] = rt.s.nodeFor(b.base + i)
								}
							}
						}
					}
					for _, k := range tx.wlocked {
						held[[2]uint64{tx.id, uint64(k)}] = rt.s.nodeFor(k)
					}
				}
			}
			runRanks(t, row.backend, func(c *Config) {
				c.Protocol, c.Deployment, c.Policy = row.proto, row.deploy, row.policy
				c.Acquire = map[bool]AcquireMode{false: Lazy, true: Eager}[row.policy == cm.Wholly]
			}, func(s *System) func(rt *Runtime) {
				once.Do(func() {
					unreleased = map[int]map[[2]uint64]int{}
					for _, c := range s.AppCores() {
						unreleased[c] = map[[2]uint64]int{}
					}
				})
				const accounts, ops = 48, 60
				accts := NewTArray(s, Uint64Codec(), accounts, 100)
				return func(rt *Runtime) {
					r := rt.Rand()
					for op := range ops {
						switch {
						case op == ops/2:
							rt.Barrier()
						case op%7 == 3:
							rt.Compute(time.Microsecond)
						case op%11 == 5:
							rt.Port().Pause(time.Microsecond)
						}
						switch k := r.Intn(10); {
						case k == 0 && rt.AppIndex() == 0 && row.proto == ProtocolVisible:
							tokenCore.Store(int64(rt.Core()))
							rt.RunIrrevocable(func(ir *Irrevocable) {
								accts.At(0).SetIr(ir, accts.At(0).GetIr(ir))
							})
							tokenCore.Store(-1)
						case k < 3:
							from := r.Intn(accounts - 8)
							rt.RunReadOnly(func(tx *Tx) {
								tx.OnCommit(ended(tx, true))
								tx.OnAbort(ended(tx, false))
								for i := from; i < from+8; i++ {
									accts.Get(tx, i)
								}
							})
						case k < 5 && row.proto == ProtocolVisible:
							a, b := r.Intn(accounts), r.Intn(accounts)
							rt.RunKind(ElasticEarly, func(tx *Tx) {
								tx.OnCommit(ended(tx, true))
								tx.OnAbort(ended(tx, false))
								accts.Get(tx, a)
								tx.EarlyRelease(accts.At(a).Addr())
								accts.Set(tx, b, accts.Get(tx, b))
							})
						default:
							from := r.Intn(accounts)
							to := (from + 1 + r.Intn(accounts-1)) % accounts
							rt.Run(func(tx *Tx) {
								tx.OnCommit(ended(tx, true))
								tx.OnAbort(ended(tx, false))
								f, v := accts.Get(tx, from), accts.Get(tx, to)
								accts.Set(tx, from, f-1)
								accts.Set(tx, to, v+1)
							})
						}
					}
				}
			})
			for c, held := range unreleased {
				if len(held) > 0 {
					t.Errorf("core %d ends with %d locks of finished attempts unreleased", c, len(held))
				}
			}
			if releases.Load() == 0 {
				t.Error("no release left any core")
			}
			if row.proto == ProtocolTL2 && kept.Load() == 0 {
				t.Error("no lock-free commit ended with an earlier attempt's release still carried")
			}
			if rode.Load() == 0 {
				t.Error("no core blocked on a lock response while another node's release stayed carried")
			}
			if lingered.Load() == 0 {
				t.Error("no attempt holding locks ended with an earlier attempt's release still carried")
			}
		})
	}
}

// TestCarriedReleaseWaitsForItsNode: an attempt locks keys on DTM nodes A
// and B, the next one reads only on A, and the one after reads on B. B's
// release waits in the carry until the third attempt's request to B carries
// it. The live row also runs in CI's -race step, the net row in the net
// job's.
func TestCarriedReleaseWaitsForItsNode(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendLive, BackendNet} {
		t.Run(backend.String(), func(t *testing.T) {
			var (
				phase, nodeB atomic.Int64  // the attempt running (1-3), and B
				first        atomic.Uint64 // the first attempt
				left, rode   atomic.Int64  // the phase B's first release left in, and rode a request in (0: never)
			)
			releaseSent = func(node int, msg *relLocks) {
				if int64(node) == nodeB.Load() && msg.TxID == first.Load() {
					left.Store(phase.Load())
				}
			}
			lockSent = func(node int, req *reqLock) {
				if int64(node) == nodeB.Load() && req.Rel != nil && req.Rel.TxID == first.Load() {
					rode.Store(phase.Load())
				}
			}
			t.Cleanup(func() { releaseSent, lockSent = nil, nil })
			runRanks(t, backend, func(c *Config) { c.TotalCores = 4 }, func(s *System) func(rt *Runtime) {
				a := s.Mem.Alloc(16, 0)
				b := a + 1
				for s.nodeFor(b) == s.nodeFor(a) {
					b++
				}
				nodeB.Store(int64(s.nodeFor(b)))
				return func(rt *Runtime) {
					if rt.Core() != firstApp(s) {
						return
					}
					phase.Store(1)
					rt.Run(func(tx *Tx) {
						first.Store(tx.id)
						tx.Write(a, tx.Read(a)+1)
						tx.Write(b, tx.Read(b)+1)
					})
					phase.Store(2)
					rt.RunReadOnly(func(tx *Tx) { tx.Read(a) })
					phase.Store(3)
					rt.RunReadOnly(func(tx *Tx) { tx.Read(b) })
				}
			})
			if left.Load() != 3 || rode.Load() != 3 {
				t.Errorf("B's release left in attempt %d and rode a request in attempt %d (0: none); want 3 and 3",
					left.Load(), rode.Load())
			}
		})
	}
}

// TestOneCarriedReleasePerNode: the carry holds at most one release per
// DTM node. An attempt ending with an older release still carried for a
// node it drafts a release for — which only a placement migration since
// the older attempt's request to the node can leave, so the older release
// is planted here — sends the older one on its own first, counted in
// ReleaseMsgs. The attempt's own release is the carry's only one, and
// leaves at the worker's exit.
func TestOneCarriedReleasePerNode(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendLive, BackendNet} {
		t.Run(backend.String(), func(t *testing.T) {
			const planted = 1 << 40 // an attempt ID the core never reaches
			var (
				alone, carried atomic.Int64 // the planted release left on its own / on a request
				attempt        atomic.Uint64
				kept           atomic.Bool // the carry held the attempt's release alone
			)
			releaseSent = func(_ int, msg *relLocks) {
				if msg.TxID == planted {
					alone.Add(1)
				}
			}
			lockSent = func(_ int, req *reqLock) {
				if req.Rel != nil && req.Rel.TxID == planted {
					carried.Add(1)
				}
			}
			t.Cleanup(func() { releaseSent, lockSent = nil, nil })
			_, st := runRanks(t, backend, func(c *Config) { c.TotalCores = 4 }, func(s *System) func(rt *Runtime) {
				a := s.Mem.Alloc(16, 0)
				c := a + 1
				for s.nodeFor(c) != s.nodeFor(a) {
					c++
				}
				return func(rt *Runtime) {
					if rt.Core() != firstApp(s) {
						return
					}
					rt.RunReadOnly(func(tx *Tx) {
						attempt.Store(tx.id)
						tx.Read(a) // the request to a's node leaves before the plant
						old := rt.lockSets.get(1)
						old.reads = append(old.reads, lockBlock{c &^ 63, 1 << (c & 63)})
						old.txID, old.place, old.refs = planted, s.dir.Snapshot(), 1
						rt.carry = append(rt.carry, relDraft{node: s.nodeFor(a), set: old, reads: 1})
					})
					kept.Store(len(rt.carry) == 1 && rt.carry[0].set.txID == attempt.Load())
				}
			})
			if alone.Load() != 1 || carried.Load() != 0 {
				t.Errorf("the planted release left %d times, %d of them on a request; want once, on its own", alone.Load(), carried.Load())
			}
			if !kept.Load() {
				t.Error("the carry does not hold the attempt's release alone after the commit")
			}
			if st.ReleaseMsgs != 2 {
				t.Errorf("%d release messages, want 2: the planted one and the attempt's at exit", st.ReleaseMsgs)
			}
		})
	}
}

// TestShardsMergeCarry: the carried-release and stale-revocation counters
// are kept per execution context and summed at the snapshot, like
// WinnerWaits.
func TestShardsMergeCarry(t *testing.T) {
	var st Stats
	for _, sh := range []Stats{
		{ReleaseMsgs: 3, CarriedReleases: 2, StaleRevokes: 1},
		{},
		{ReleaseMsgs: 1, CarriedReleases: 5, StaleRevokes: 4},
	} {
		st.addShard(&sh)
	}
	if st.ReleaseMsgs != 4 || st.CarriedReleases != 7 || st.StaleRevokes != 5 {
		t.Fatalf("merged %d releases (+%d carried), %d stale revocations; want 4, 7, 5",
			st.ReleaseMsgs, st.CarriedReleases, st.StaleRevokes)
	}
}

// TestTokenWaitsForNoFinishedHolder: an irrevocable transaction's token is
// granted once a node holds no lock of a running attempt. A core that
// committed and then waits for that transaction must not keep the token from
// being granted. Two orders: in "committed", the token is requested after
// the commit and the core waits outside the runtime, sending nothing, so
// the node revokes the release it still carries; in "running", the token is
// requested while the core's attempt still holds its lock, and the core then
// waits on its port, whose pause sends the carried release first.
func TestTokenWaitsForNoFinishedHolder(t *testing.T) {
	for _, order := range []string{"committed", "running"} {
		for _, backend := range []Backend{BackendSim, BackendLive} {
			t.Run(order+"/"+backend.String(), func(t *testing.T) {
				tokenWaitRun(t, backend, order == "running")
			})
		}
	}
}

func tokenWaitRun(t *testing.T, backend Backend, running bool) {
	giveUp := byBackend(backend, 2*time.Millisecond, 200*time.Millisecond)
	var held, asked, committed, irrevocable, gaveUp, early atomic.Bool
	runRanks(t, backend, func(c *Config) { c.TotalCores = 4 }, func(s *System) func(rt *Runtime) {
		acct := s.Mem.Alloc(1, 0)
		app := s.AppCores()
		slices.Sort(app)
		return func(rt *Runtime) {
			switch rt.Core() {
			case app[0]:
				if !running {
					rt.Run(func(tx *Tx) { tx.Write(acct, tx.Read(acct)+1) })
				} else {
					rt.RunReadOnly(func(tx *Tx) {
						tx.Read(acct)
						held.Store(true)
						for !asked.Load() {
							pauseServing(rt)
						}
						// Time for the token request to reach the node,
						// which queues it behind this attempt's read lock.
						for end := rt.proc.Now() + giveUp/10; rt.proc.Now() < end; {
							pauseServing(rt)
						}
					})
				}
				early.Store(irrevocable.Load())
				committed.Store(true)
				for end := rt.proc.Now() + giveUp; !irrevocable.Load(); {
					if rt.proc.Now() >= end {
						gaveUp.Store(true) // exiting sends the release
						break
					}
					if running {
						rt.Port().Pause(5 * time.Microsecond)
					} else {
						pauseServing(rt) // sends nothing
					}
				}
			case app[1]:
				for !(running && held.Load()) && !committed.Load() {
					pauseServing(rt)
				}
				asked.Store(true)
				rt.RunIrrevocable(func(ir *Irrevocable) { ir.Write(acct, ir.Read(acct)+1) })
				irrevocable.Store(true)
			}
		}
	})
	if early.Load() {
		t.Error("the token was granted while a running attempt held a lock")
	}
	if gaveUp.Load() {
		t.Error("the token waited for a committed attempt's release")
	}
}

// TestFrozenStripeHandsOffPastFinishedHolder: a frozen placement stripe is
// handed off once no running attempt holds a lock in it. Stripe A's only
// lock belongs to an attempt that has committed, whose release its core
// would still carry; stripe B's belongs to the same core's next attempt,
// still running. A transaction that reads a key of A commits at A's new
// owner, and B stays frozen.
func TestFrozenStripeHandsOffPastFinishedHolder(t *testing.T) {
	s := testSystem(t, func(c *Config) {
		c.TotalCores, c.ServiceCores = 4, 2
		c.Placement = placement.AdaptiveHier
		c.RepartitionEpoch = 1 << 30 // no automatic rounds; the test drives the moves
	})
	dir := s.Placement()
	pool := s.Mem.Alloc(4096, 0)
	a, b := pool, pool
	for dir.Owner(b) != dir.Owner(a) || dir.StripeOf(b) == dir.StripeOf(a) {
		if b++; b == pool+4096 {
			t.Fatal("no second stripe of the same node in pool")
		}
	}
	node, to := dir.Owner(a), 1-dir.Owner(a)
	holder := s.AppCores()[1] // runs nothing here: its register is the test's
	s.nodes[node].table.SetWriter(a, cm.Meta{Core: holder, TxID: 5})
	s.nodes[node].table.SetWriter(b, cm.Meta{Core: holder, TxID: 6})
	s.Regs.SetStatusLocal(holder, 6, mem.TxPending) // attempt 5 has ended, 6 runs
	for _, k := range []mem.Addr{a, b} {
		if !dir.InitiateMove(dir.StripeOf(k), to) {
			t.Fatal("InitiateMove refused")
		}
	}
	reader := s.AppCores()[0]
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.Core() == reader {
			rt.Run(func(tx *Tx) { tx.Read(a) })
		}
	})
	if st := s.Run(200 * time.Microsecond); st.Commits != 1 {
		t.Fatalf("%d commits, want 1: the read of the frozen stripe never got through", st.Commits)
	}
	if got := dir.StripeOwner(dir.StripeOf(a)); got != to {
		t.Errorf("stripe A owned by node %d, want %d", got, to)
	}
	if _, frozen := dir.PendingTarget(dir.StripeOf(b)); !frozen {
		t.Error("stripe B was handed off under a running attempt's lock")
	}
}
