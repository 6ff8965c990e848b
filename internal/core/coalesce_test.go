package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// The coalescing message plane (Config.Coalesce) must change how protocol
// payloads travel — fewer, fatter wire messages — without changing what the
// protocol decides. These tests pin both halves: per-seed outcome
// equivalence (commits, aborts, final memory, serializability audit) on a
// deterministic workload where coalescing genuinely merges, and an
// invariant + wire-count check on a contended bank workload.

// coalesceSystem builds a sim system whose commit bursts produce several
// payloads per destination node: NoBatching splits the scatter burst into
// one request per object, which is exactly the multiplicity the transport
// re-merges (the protocol-batching ablation grid in exp/ablations.go shows
// the same effect at scale).
func coalesceSystem(t *testing.T, seed uint64, coalesce bool) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Platform:     noc.SCC(0),
		Seed:         seed,
		TotalCores:   12,
		ServiceCores: 4,
		Policy:       cm.FairCM,
		NoBatching:   true,
		Coalesce:     coalesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// disjointRun executes a fixed, conflict-free workload: every worker
// performs a deterministic sequence of 6-object writes confined to its own
// slice of the array, so the protocol outcome — commits, aborts, every
// final memory word — is defined independently of message timing. Returns
// the final memory image alongside the stats.
func disjointRun(t *testing.T, seed uint64, coalesce bool) (*Stats, []uint64) {
	t.Helper()
	s := coalesceSystem(t, seed, coalesce)
	s.EnableAudit()
	const perCore, rounds = 64, 12
	n := s.NumAppCores()
	base := s.Mem.Alloc(n*perCore, 0)
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

// TestCoalesceOutcomeEquivalence: per seed, a coalesced run must reach the
// exact same protocol outcome as the uncoalesced run — same commits, same
// aborts, same logical message counts, identical final memory, clean audit
// — while provably merging (strictly fewer wire messages, payloads riding
// in shared envelopes). This is the non-vacuous equivalence the coalescing
// refactor promises: only the wire format changed, not the protocol.
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

// TestCoalesceContendedBankFewerWireMsgs: on a contended bank workload the
// coalesced plane must send strictly fewer wire messages for the same kind
// of work, and every correctness invariant must hold: money conserved,
// empty lock tables, clean serializability audit.
func TestCoalesceContendedBankFewerWireMsgs(t *testing.T) {
	run := func(coalesce bool) *Stats {
		s := coalesceSystem(t, 3, coalesce)
		s.EnableAudit()
		const accounts = 48
		base := s.Mem.Alloc(accounts, 0)
		initial := make(map[mem.Addr]uint64, accounts)
		for i := 0; i < accounts; i++ {
			s.Mem.WriteRaw(base+mem.Addr(i), 100)
			initial[base+mem.Addr(i)] = 100
		}
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 30; i++ {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tv := tx.Read(base + mem.Addr(to))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tv+1)
				})
			}
		})
		st := s.RunToCompletion()
		if err := s.CheckAudit(initial); err != nil {
			t.Fatalf("audit failed (coalesce=%v): %v", coalesce, err)
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Fatalf("%d locks leaked (coalesce=%v)", leaked, coalesce)
		}
		var total uint64
		for i := 0; i < accounts; i++ {
			total += s.Mem.ReadRaw(base + mem.Addr(i))
		}
		if want := uint64(accounts) * 100; total != want {
			t.Fatalf("money not conserved (coalesce=%v): %d != %d", coalesce, total, want)
		}
		return st
	}
	off, on := run(false), run(true)
	if on.WireMsgs >= off.WireMsgs {
		t.Errorf("contended bank: coalesced run sent %d wire messages, uncoalesced %d — want strictly fewer",
			on.WireMsgs, off.WireMsgs)
	}
	if on.PayloadsPerWireMsg() <= 1 {
		t.Errorf("contended bank: payloads/wire = %.3f, want > 1", on.PayloadsPerWireMsg())
	}
}

// TestCoalesceMultitaskConserves exercises the multitask flush points (the
// co-located node's staged responses leave at every dispatch boundary):
// a coalesced multitask bank must drain, conserve money, and leak no locks.
func TestCoalesceMultitaskConserves(t *testing.T) {
	s, err := NewSystem(Config{
		Platform:   noc.SCC(0),
		Seed:       11,
		TotalCores: 6,
		Deployment: Multitask,
		Policy:     cm.FairCM,
		NoBatching: true,
		Coalesce:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const accounts = 32
	base := s.Mem.Alloc(accounts, 0)
	for i := 0; i < accounts; i++ {
		s.Mem.WriteRaw(base+mem.Addr(i), 100)
	}
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < 25; i++ {
			from := r.Intn(accounts)
			to := (from + 1 + r.Intn(accounts-1)) % accounts
			rt.Run(func(tx *Tx) {
				f := tx.Read(base + mem.Addr(from))
				tv := tx.Read(base + mem.Addr(to))
				tx.Write(base+mem.Addr(from), f-1)
				tx.Write(base+mem.Addr(to), tv+1)
			})
		}
	})
	st := s.RunToCompletion()
	if st.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Mem.ReadRaw(base + mem.Addr(i))
	}
	if want := uint64(accounts) * 100; total != want {
		t.Fatalf("money not conserved: %d != %d", total, want)
	}
}

// TestCoalesceDeterministic: the coalesced plane must stay bit-identical
// across same-seed sim runs — staging and flushing introduce no map-order
// or other nondeterminism.
func TestCoalesceDeterministic(t *testing.T) {
	run := func() *Stats {
		s := coalesceSystem(t, 21, true)
		const accounts = 24
		base := s.Mem.Alloc(accounts, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tx.Read(base+mem.Addr(to))+1)
				})
				rt.AddOps(1)
			}
		})
		return s.Run(2 * time.Millisecond)
	}
	a, b := run(), run()
	if a.Commits != b.Commits || a.Aborts != b.Aborts || a.Msgs != b.Msgs ||
		a.WireMsgs != b.WireMsgs || a.CoalescedPayloads != b.CoalescedPayloads {
		t.Fatalf("same-seed coalesced runs diverged:\n%+v\n%+v", a, b)
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
// destination (default protocol batching — one write-lock request, one
// release per node per burst), every flush is a singleton and goes out as
// a bare payload at the same virtual instant with the same MsgDelay, so a
// coalesced sim run is BIT-IDENTICAL to the uncoalesced run — not merely
// outcome-equivalent.
func TestCoalesceSingletonPlaneBitIdentical(t *testing.T) {
	run := func(coalesce bool) *Stats {
		s, err := NewSystem(Config{
			Platform:     noc.SCC(0),
			Seed:         13,
			TotalCores:   12,
			ServiceCores: 4,
			Policy:       cm.FairCM,
			Coalesce:     coalesce,
		})
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
	off, on := run(false), run(true)
	if off.Commits != on.Commits || off.Aborts != on.Aborts || off.Msgs != on.Msgs ||
		off.MsgBytes != on.MsgBytes || off.Duration != on.Duration {
		t.Fatalf("singleton-burst coalesced run diverged from uncoalesced:\noff %+v\non  %+v", off, on)
	}
	if on.WireMsgs != on.Msgs || on.CoalescedPayloads != 0 {
		t.Fatalf("singleton bursts produced envelopes: %d wire msgs for %d payloads, %d coalesced",
			on.WireMsgs, on.Msgs, on.CoalescedPayloads)
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
	// scatter reads two words and writes four: with NoBatching the commit
	// burst has several payloads per node, without it one.
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
					for _, noBatching := range []bool{false, true} {
						cfg := Config{Coalesce: coalesce, Deployment: dep, Acquire: acq, Protocol: proto, NoBatching: noBatching}
						name := fmt.Sprintf("coalesce=%v/%v/%v/%v/nobatching=%v", coalesce, dep, acq, proto, noBatching)
						t.Run(name, func(t *testing.T) { run(t, cfg, scatter(Normal)) })
					}
				}
			}
		}
		t.Run(fmt.Sprintf("coalesce=%v/elastic-early", coalesce), func(t *testing.T) {
			run(t, Config{Coalesce: coalesce, NoBatching: true}, scatter(ElasticEarly))
		})
		t.Run(fmt.Sprintf("coalesce=%v/irrevocable", coalesce), func(t *testing.T) {
			run(t, Config{Coalesce: coalesce, NoBatching: true}, func(rt *Runtime, base mem.Addr, i int) {
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
