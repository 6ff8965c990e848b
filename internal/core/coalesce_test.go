package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

// The coalescing message plane (Config.Coalesce) changes how protocol
// payloads travel — same-destination payloads of one burst share a wire
// message — and never what the protocol decides. With write-lock batching
// unconditional, no protocol burst holds two payloads for one node, so the
// plane is pinned from both ends: an envelope staged by hand must travel and
// be served (TestOutboxEnvelopeDelivered), envelopes mixed into live protocol
// traffic must not change its outcome (TestCoalesceOutcomeEquivalence), and
// every protocol path must leave the plane singleton and bit-identical
// (TestCoalesceSingletonPlaneBitIdentical).

// TestOutboxEnvelopeDelivered drives the outbox directly, on sim and on live:
// two release payloads staged for one DTM node in one burst leave as one
// wire envelope, the node unpacks and serves both, and the flight recorder
// shows the send with its payload count and the delivery at the node.
func TestOutboxEnvelopeDelivered(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendLive} {
		t.Run(backend.String(), func(t *testing.T) {
			s, err := NewSystem(Config{
				Backend:      backend,
				TotalCores:   2,
				ServiceCores: 1,
				Coalesce:     true,
				Trace:        &trace.Options{},
			})
			if err != nil {
				t.Fatal(err)
			}
			base := s.Mem.Alloc(2, 0)
			s.SpawnWorkers(func(rt *Runtime) {
				for i := range 2 {
					msg := getRelLocks() // releasing a lock nobody holds is a no-op
					msg.Core, msg.TxID = rt.core, 1
					msg.ReadAddrs = append(msg.ReadAddrs, base+mem.Addr(i))
					rt.burstToNode(0, msg)
				}
				rt.flushOut()
			})
			st := s.RunToCompletion()
			if st.WireMsgs != 1 || st.Msgs != 2 || st.CoalescedPayloads != 2 {
				t.Errorf("%d wire msgs for %d payloads, %d coalesced; want 1, 2, 2", st.WireMsgs, st.Msgs, st.CoalescedPayloads)
			}
			if st.NodeLoad[0] != 2 {
				t.Errorf("node served %d requests, want 2", st.NodeLoad[0])
			}
			sent := false
			for _, e := range s.Trace().Events {
				switch {
				case e.Kind == trace.KWireSend && e.C == 2:
					sent = true
				case e.Kind == trace.KEnvelopeDeliver && e.C == 2 && sent:
					return
				}
			}
			t.Error("trace lacks a 2-payload KWireSend followed by its KEnvelopeDeliver")
		})
	}
}

// disjointRun executes a fixed, conflict-free workload: every worker
// performs a deterministic sequence of 6-object writes confined to its own
// slice of the array, so the protocol outcome — commits, aborts, every
// final memory word — is defined independently of message timing. After
// each transaction the worker stages two releases of a scratch word nobody
// locks (a no-op at the node) for DTM node 0 in one burst, so a coalesced
// run has envelopes interleaved with the protocol's own traffic. Returns the
// final memory image alongside the stats.
func disjointRun(t *testing.T, seed uint64, coalesce bool) (*Stats, []uint64) {
	t.Helper()
	s, err := NewSystem(Config{
		Platform:     noc.SCC(0),
		Seed:         seed,
		TotalCores:   12,
		ServiceCores: 4,
		Policy:       cm.FairCM,
		Coalesce:     coalesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAudit()
	const perCore, rounds = 64, 12
	n := s.NumAppCores()
	base := s.Mem.Alloc(n*perCore, 0)
	scratch := s.Mem.Alloc(n, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		lo := rt.AppIndex() * perCore
		for i := 0; i < rounds; i++ {
			rt.Run(func(tx *Tx) {
				for k := 0; k < 6; k++ {
					slot := lo + r.Intn(perCore)
					tx.Write(base+mem.Addr(slot), uint64(slot)<<16|uint64(i))
				}
			})
			for range 2 {
				msg := getRelLocks()
				msg.Core, msg.TxID = rt.core, 1
				msg.ReadAddrs = append(msg.ReadAddrs, scratch+mem.Addr(rt.AppIndex()))
				rt.burstToNode(0, msg)
			}
			rt.flushOut()
		}
	})
	st := s.RunToCompletion()
	if err := s.CheckAudit(nil); err != nil {
		t.Fatalf("audit failed (coalesce=%v, seed=%d): %v", coalesce, seed, err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked (coalesce=%v, seed=%d)", leaked, coalesce, seed)
	}
	img := make([]uint64, n*perCore)
	for i := range img {
		img[i] = s.Mem.ReadRaw(base + mem.Addr(i))
	}
	return st, img
}

// TestCoalesceOutcomeEquivalence: per seed, a coalesced run with envelopes
// in flight must reach the exact same protocol outcome as the uncoalesced
// run — same commits, same aborts, same logical message counts, identical
// final memory, clean audit — while provably merging (strictly fewer wire
// messages, payloads riding in shared envelopes). Only the wire format
// changes, not the protocol.
func TestCoalesceOutcomeEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		off, imgOff := disjointRun(t, seed, false)
		on, imgOn := disjointRun(t, seed, true)
		if off.Commits != on.Commits || off.Aborts != on.Aborts {
			t.Errorf("seed %d: commits/aborts %d/%d coalesced vs %d/%d uncoalesced",
				seed, on.Commits, on.Aborts, off.Commits, off.Aborts)
		}
		if off.Msgs != on.Msgs {
			t.Errorf("seed %d: logical payloads %d coalesced vs %d uncoalesced",
				seed, on.Msgs, off.Msgs)
		}
		for i := range imgOff {
			if imgOff[i] != imgOn[i] {
				t.Fatalf("seed %d: final memory diverges at word %d: %#x vs %#x",
					seed, i, imgOn[i], imgOff[i])
			}
		}
		if off.WireMsgs != off.Msgs || off.CoalescedPayloads != 0 {
			t.Errorf("seed %d: uncoalesced run counted %d wire msgs for %d payloads (%d coalesced)",
				seed, off.WireMsgs, off.Msgs, off.CoalescedPayloads)
		}
		if on.WireMsgs >= off.WireMsgs {
			t.Errorf("seed %d: coalescing did not reduce wire messages (%d vs %d) — equivalence is vacuous",
				seed, on.WireMsgs, off.WireMsgs)
		}
		if on.CoalescedPayloads == 0 {
			t.Errorf("seed %d: no payload rode a shared envelope", seed)
		}
	}
}

// TestCoalesceEagerAndElastic: the non-default protocol modes run through
// the coalesced plane too (eager write locks are awaited round trips, the
// elastic-early release burst is staged); both must quiesce cleanly.
func TestCoalesceEagerAndElastic(t *testing.T) {
	for _, acq := range []AcquireMode{Eager, Lazy} {
		s2, err := NewSystem(Config{
			Platform:     noc.SCC(0),
			Seed:         17,
			TotalCores:   8,
			ServiceCores: 2,
			Policy:       cm.FairCM,
			Acquire:      acq,
			Coalesce:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := s2.Mem.Alloc(16, 0)
		s2.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 15; i++ {
				rt.RunKind(ElasticEarly, func(tx *Tx) {
					a := mem.Addr(r.Intn(16))
					tx.Read(base + a)
					tx.EarlyRelease(base + a)
					tx.Write(base+mem.Addr(r.Intn(16)), uint64(i))
				})
			}
		})
		s2.RunToCompletion()
		if leaked := s2.LockedAddrs(); leaked != 0 {
			t.Fatalf("acquire=%v: %d locks leaked", acq, leaked)
		}
	}
}

// TestCoalesceSingletonPlaneBitIdentical pins the strongest transparency
// property of the coalescing plane: when no burst has two payloads for one
// destination — one write-lock request and one release per node per burst,
// one response per requester per dispatch — every flush is a singleton and
// goes out as a bare payload at the same virtual instant with the same
// MsgDelay, so a coalesced sim run is BIT-IDENTICAL to the uncoalesced run,
// in every deployment, protocol and acquisition mode. A protocol path that
// starts producing envelopes fails here.
func TestCoalesceSingletonPlaneBitIdentical(t *testing.T) {
	run := func(cfg Config) *Stats {
		cfg.Platform, cfg.Seed, cfg.TotalCores, cfg.ServiceCores, cfg.Policy = noc.SCC(0), 13, 12, 4, cm.FairCM
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const accounts = 48
		base := s.Mem.Alloc(accounts, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tv := tx.Read(base + mem.Addr(to))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tv+1)
				})
				rt.AddOps(1)
			}
		})
		return s.Run(2 * time.Millisecond)
	}
	for _, dep := range []Deployment{Dedicated, Multitask} {
		for _, proto := range []Protocol{ProtocolVisible, ProtocolTL2} {
			for _, acq := range []AcquireMode{Lazy, Eager} {
				t.Run(fmt.Sprintf("%v/%v/%v", dep, proto, acq), func(t *testing.T) {
					cfg := Config{Deployment: dep, Protocol: proto, Acquire: acq}
					off := run(cfg)
					cfg.Coalesce = true
					on := run(cfg)
					if off.Commits != on.Commits || off.Aborts != on.Aborts || off.Msgs != on.Msgs ||
						off.MsgBytes != on.MsgBytes || off.Duration != on.Duration {
						t.Fatalf("singleton-burst coalesced run diverged from uncoalesced:\noff %+v\non  %+v", off, on)
					}
					if on.WireMsgs != on.Msgs || on.CoalescedPayloads != 0 {
						t.Fatalf("singleton bursts produced envelopes: %d wire msgs for %d payloads, %d coalesced",
							on.WireMsgs, on.Msgs, on.CoalescedPayloads)
					}
				})
			}
		}
	}
}

// TestOutboxEmptyWheneverAPortBlocks pins the invariant the message plane
// rests on: no payload is ever staged across a point where its port can
// block. Every burst site flushes before its port receives, so whenever a
// core is between transactions, about to enter a barrier, or parked at
// quiesce, its outbox — and under Multitask the co-located node's — holds
// nothing, on either setting of Coalesce and in every protocol mode; and a
// run that leaves nothing staged leaves no lock behind.
func TestOutboxEmptyWheneverAPortBlocks(t *testing.T) {
	const words = 16
	flushed := func(t *testing.T, rt *Runtime, where string) {
		if n := rt.out.Pending(); n != 0 {
			t.Errorf("app%d %s: %d payloads staged in the core's outbox", rt.core, where, n)
		}
		if rt.node != nil {
			if n := rt.node.out.Pending(); n != 0 {
				t.Errorf("app%d %s: %d responses staged in the co-located node's outbox", rt.core, where, n)
			}
		}
	}
	// Every workload is rounds of one transaction then one barrier, so the
	// barrier is entered with the last transaction's release burst behind it.
	run := func(t *testing.T, cfg Config, txn func(rt *Runtime, base mem.Addr, i int)) {
		cfg.Platform, cfg.Seed, cfg.TotalCores, cfg.Policy = noc.SCC(0), 19, 8, cm.FairCM
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := s.Mem.Alloc(words, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			for i := 0; i < 10; i++ {
				txn(rt, base, i)
				flushed(t, rt, "after a transaction")
				rt.Barrier()
				flushed(t, rt, "after a barrier")
			}
		})
		if st := s.RunToCompletion(); st.Commits == 0 {
			t.Fatal("nothing committed")
		}
		for _, rt := range s.runtimes {
			flushed(t, rt, "at quiesce")
		}
		for _, n := range s.nodes {
			if p := n.out.Pending(); p != 0 {
				t.Errorf("dtm%d at quiesce: %d responses staged", n.core, p)
			}
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Errorf("%d locks leaked", leaked)
		}
	}
	// scatter reads two words and writes four.
	scatter := func(kind TxKind) func(*Runtime, mem.Addr, int) {
		return func(rt *Runtime, base mem.Addr, i int) {
			r := rt.Rand()
			rt.RunKind(kind, func(tx *Tx) {
				a := base + mem.Addr(r.Intn(words))
				v := tx.Read(a) + tx.Read(base+mem.Addr(r.Intn(words)))
				if kind == ElasticEarly {
					tx.EarlyRelease(a)
				}
				for k := 0; k < 4; k++ {
					tx.Write(base+mem.Addr(r.Intn(words)), v+uint64(i))
				}
			})
		}
	}
	for _, coalesce := range []bool{false, true} {
		for _, dep := range []Deployment{Dedicated, Multitask} {
			for _, acq := range []AcquireMode{Lazy, Eager} {
				for _, proto := range []Protocol{ProtocolVisible, ProtocolTL2} {
					cfg := Config{Coalesce: coalesce, Deployment: dep, Acquire: acq, Protocol: proto}
					name := fmt.Sprintf("coalesce=%v/%v/%v/%v", coalesce, dep, acq, proto)
					t.Run(name, func(t *testing.T) { run(t, cfg, scatter(Normal)) })
				}
			}
		}
		t.Run(fmt.Sprintf("coalesce=%v/elastic-early", coalesce), func(t *testing.T) {
			run(t, Config{Coalesce: coalesce}, scatter(ElasticEarly))
		})
		t.Run(fmt.Sprintf("coalesce=%v/irrevocable", coalesce), func(t *testing.T) {
			run(t, Config{Coalesce: coalesce}, func(rt *Runtime, base mem.Addr, i int) {
				if rt.AppIndex() != 0 {
					scatter(Normal)(rt, base, i)
					return
				}
				rt.RunIrrevocable(func(ir *Irrevocable) {
					ir.Write(base+mem.Addr(i%words), ir.Read(base)+1)
				})
			})
		})
	}
}
