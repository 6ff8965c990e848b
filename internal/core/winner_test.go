package core

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
)

// loserRow is one run of a winner-wait test: the lowest app core runs the
// winner, an attempt that takes its lock and stays live until the loser on
// the next app core has lost to it once, and at least for a hold; the loser
// starts once the winner holds its lock.
//
//	war    the winner is a read-only scan of two accounts; the loser is a
//	       transfer between them, whose commit loses WAR
//	raw    under eager acquisition the winner write-locks an account and
//	       keeps the lock while away; the loser reads it
//	waw    as raw, but the loser writes the account
//	token  the winner is an irrevocable transaction, holding every node's
//	       token; the loser reads an account, and its request is NACKed
//	       because the node is blocked
type loserRow struct {
	name     string
	backend  Backend
	policy   cm.Policy
	deploy   Deployment
	conflict string
	// attempts pins the transfer's attempts on sim under a policy that does
	// not wait: the count the runtime gave before losers waited for winners
	// (FairCM's was 70 too, 68 of them while the scan was live), less one
	// for no-cm since an aborted attempt's release rides the retry's first
	// lock request.
	attempts int
}

// waits reports whether the row's loser must wait for the winner: the NACK
// names it (a priority or the token decided the conflict, not NoCM's or
// BackoffRetry's unconditional verdict), and every such loser waits, on
// every backend.
func (row loserRow) waits() bool {
	return row.conflict == "token" || row.policy != cm.NoCM && row.policy != cm.BackoffRetry
}

// loserOutcome is what a row observed of the loser.
type loserOutcome struct {
	attempts  int // attempts the loser used
	whileLive int // attempts after the first that began while the winner's attempt was live
	stats     *Stats
}

// TestWARLoserWaitsForWinner: a transfer that loses WAR to a scan waits
// for the scan's attempt to end where the NACK names it — under every
// policy with priorities, on every backend — and retries exactly as before
// otherwise. The live rows also run in CI's
// -race step, the net rows in the net job's.
func TestWARLoserWaitsForWinner(t *testing.T) {
	rows := []loserRow{
		{name: "sim/no-cm", policy: cm.NoCM, attempts: 69},
		{name: "sim/backoff", policy: cm.BackoffRetry, attempts: 11},
		{name: "sim/offset-greedy", policy: cm.OffsetGreedy},
		{name: "sim/wholly", policy: cm.Wholly},
		{name: "sim/faircm", policy: cm.FairCM},
		{name: "sim/faircm-multitask", policy: cm.FairCM, deploy: Multitask},
		{name: "live/faircm", backend: BackendLive, policy: cm.FairCM},
		{name: "live/no-cm", backend: BackendLive, policy: cm.NoCM},
		{name: "live/backoff", backend: BackendLive, policy: cm.BackoffRetry},
		{name: "net/faircm", backend: BackendNet, policy: cm.FairCM},
		{name: "net/offset-greedy", backend: BackendNet, policy: cm.OffsetGreedy},
		{name: "net/wholly", backend: BackendNet, policy: cm.Wholly},
	}
	for _, row := range rows {
		row.conflict = "war"
		t.Run(row.name, func(t *testing.T) { checkLoserRow(t, row) })
	}
}

// TestLoserWaitsForWinner: every conflict NACK names the attempt that
// decided it, so on every backend a loser to a write lock kept by a holder
// that is away (RAW, WAW), or to an irrevocable transaction's token, sends
// nothing while that attempt is live and commits within two attempts of its
// end. The token rows run under NoCM:
// the token, not a priority, decides them. The live rows also run in CI's
// -race step, the net rows in the net job's.
func TestLoserWaitsForWinner(t *testing.T) {
	var rows []loserRow
	for _, b := range []Backend{BackendSim, BackendLive, BackendNet} {
		rows = append(rows,
			loserRow{name: b.String() + "/raw", backend: b, policy: cm.FairCM, conflict: "raw"},
			loserRow{name: b.String() + "/waw", backend: b, policy: cm.FairCM, conflict: "waw"},
			loserRow{name: b.String() + "/token", backend: b, policy: cm.NoCM, conflict: "token"},
		)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkLoserRow(t, row) })
	}
}

// checkLoserRow runs row and checks the loser against the row's rule.
func checkLoserRow(t *testing.T, row loserRow) {
	out := runLoserRow(t, row)
	waits := out.stats.WinnerWaits
	if row.waits() {
		if out.whileLive != 0 || out.attempts-1-out.whileLive > 2 {
			t.Errorf("loser: %d attempts, %d of them retries while the winner was live; want none, and a commit within 2 attempts of the winner's end",
				out.attempts, out.whileLive)
		}
		if waits == 0 || out.stats.WinnerWaitTime <= 0 {
			t.Errorf("%d winner waits lasting %v; want at least one", waits, out.stats.WinnerWaitTime)
		}
		return
	}
	if waits != 0 {
		t.Errorf("%d winner waits under %v on %v, which does not wait", waits, row.policy, row.backend)
	}
	if row.attempts != 0 && out.attempts != row.attempts {
		t.Errorf("transfer took %d attempts, want %d as before winner waits", out.attempts, row.attempts)
	}
	if out.whileLive == 0 {
		t.Errorf("loser never retried while the winner was live (%d attempts)", out.attempts)
	}
}

// runLoserRow runs one row, on every rank of a net row, and checks the lock
// tables once the run has drained.
func runLoserRow(t *testing.T, row loserRow) loserOutcome {
	t.Helper()
	hold := port.Time(2 * time.Millisecond) // virtual on sim
	if row.backend != BackendSim {
		hold = port.Time(20 * time.Millisecond)
	}
	var (
		held  atomic.Bool   // the winner holds its lock
		lost  atomic.Bool   // the loser has lost to the winner once
		winTx atomic.Uint64 // the winner's attempt
		out   loserOutcome
	)
	_, out.stats = runRanks(t, row.backend, func(c *Config) {
		c.TotalCores, c.Policy, c.Deployment = 4, row.policy, row.deploy
		if row.conflict == "raw" || row.conflict == "waw" {
			c.Acquire = Eager
		}
	}, func(s *System) func(rt *Runtime) {
		accts := s.Mem.Alloc(2, 0)
		app := s.AppCores()
		slices.Sort(app)
		winCore, loseCore := app[0], app[1]
		// stay is the winner's body once it holds its lock.
		stay := func(rt *Runtime, id uint64) {
			winTx.Store(id)
			held.Store(true)
			for end := rt.proc.Now() + hold; rt.proc.Now() < end || !lost.Load(); {
				pauseServing(rt)
			}
		}
		return func(rt *Runtime) {
			switch rt.Core() {
			case winCore:
				switch row.conflict {
				case "war":
					rt.RunReadOnly(func(tx *Tx) {
						tx.Read(accts)
						tx.Read(accts + 1)
						stay(rt, tx.ID())
					})
				case "token":
					rt.RunIrrevocable(func(ir *Irrevocable) {
						ir.Write(accts, ir.Read(accts)+1)
						stay(rt, ir.id)
					})
				default:
					rt.Run(func(tx *Tx) {
						tx.Write(accts, 7)
						stay(rt, tx.ID())
					})
				}
			case loseCore:
				for !held.Load() {
					pauseServing(rt)
				}
				attempts := 0
				out.attempts = rt.Run(func(tx *Tx) {
					tx.OnAbort(func() { lost.Store(true) })
					if attempts++; attempts > 1 {
						_, id, st := rt.s.Regs.CASStatusRemoteObserve(rt.proc, rt.core, winCore, 0, mem.TxFree, mem.TxFree)
						if id == winTx.Load() && (st == mem.TxPending || st == mem.TxCommitting) {
							out.whileLive++
						}
					}
					switch row.conflict {
					case "war":
						a, b := tx.Read(accts), tx.Read(accts+1)
						tx.Write(accts, a-1)
						tx.Write(accts+1, b+1)
					case "waw":
						tx.Write(accts, 9)
					default:
						tx.Read(accts)
					}
				})
			}
		}
	})
	return out
}

// TestConflictNackNamesWinner: a NACK names the attempt that decided it even
// where no priority did. A requester that beats a holder planted in a DTM
// node's table, whose status register shows it Committing, cannot abort it,
// and the NACK names that holder, for every conflict class; a node whose
// token an irrevocable transaction holds, or awaits, names that transaction.
// The retry commits once the planted winner has ended.
func TestConflictNackNamesWinner(t *testing.T) {
	const enemyCore, enemyTx = 3, uint64(99)
	cases := []struct {
		name string
		kind cm.Kind
		// plant sets up what decides the conflict at node n for addr, and
		// returns what ends it.
		plant func(s *System, n *dtmNode, addr mem.Addr) (end func())
		write bool // the requester writes addr (lazy: at commit)
	}{
		{"raw/committing-writer", cm.RAW, plantHolder(true), false},
		{"waw/committing-writer", cm.WAW, plantHolder(true), true},
		{"war/committing-reader", cm.WAR, plantHolder(false), true},
		{"raw/token-held", cm.RAW, func(s *System, n *dtmNode, _ mem.Addr) func() {
			n.excl.held, n.excl.owner, n.excl.ownerTx = true, enemyCore, enemyTx
			return func() { n.excl.held = false }
		}, false},
		{"waw/token-awaited", cm.WAW, func(s *System, n *dtmNode, _ mem.Addr) func() {
			n.excl.queue = []*reqLock{{Meta: cm.Meta{Core: enemyCore, TxID: enemyTx}}}
			return func() { n.excl.queue = nil }
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testSystem(t, func(cfg *Config) { cfg.TotalCores, cfg.ServiceCores = 4, 2 })
			addr := s.Mem.Alloc(1, 0)
			end := c.plant(s, s.nodes[s.dir.Owner(addr)], addr)
			var (
				named   []cm.Meta
				attempt int
			)
			requester := s.AppCores()[0]
			s.SpawnWorkers(func(rt *Runtime) {
				if rt.Core() != requester {
					return
				}
				rt.Run(func(tx *Tx) {
					attempt++
					tx.OnAbort(func() {
						named = append(named, rt.winner)
						end()
					})
					if c.write {
						tx.Write(addr, 1)
					} else {
						tx.Read(addr)
					}
				})
			})
			st := s.RunToCompletion()
			want := cm.Meta{Core: enemyCore, TxID: enemyTx}
			if len(named) != 1 || named[0] != want || st.AbortsByKind[c.kind] != 1 {
				t.Fatalf("NACKs named %v (aborts by kind %v); want one %v NACK naming %v", named, st.AbortsByKind, c.kind, want)
			}
			if st.Commits != 1 || attempt != 2 {
				t.Errorf("%d commits in %d attempts; want the retry to commit", st.Commits, attempt)
			}
		})
	}
}

// TestEndedWinnerResend: on every backend, a request whose conflict NACK
// names an attempt that has already ended is sent again in the same attempt,
// naming that attempt, and the node revokes its locks before judging it.
//
//	holder/read   a write lock of an ended attempt, whose release never
//	              comes, at a node too busy to check for that
//	              (dtmNode.busy): the read is granted after one resend, over
//	              one stale revocation, in the transaction's first attempt
//	holder/write  as holder/read, but a commit writes the key after a key of
//	              another node: its second batch alone is sent again
//	token-held    a node whose token an ended irrevocable transaction still
//	              holds, its token release not yet sent: the resend is
//	              NACKed naming the same attempt, and the attempt aborts
//	              instead of sending again; the abort sends that release,
//	              and the retry commits
//
// The live rows also run in CI's -race step, the net rows in the net job's.
func TestEndedWinnerResend(t *testing.T) {
	for _, b := range []Backend{BackendSim, BackendLive, BackendNet} {
		for _, row := range []string{"holder/read", "holder/write", "token-held"} {
			t.Run(b.String()+"/"+row, func(t *testing.T) {
				attempts, st := runEndedWinner(t, b, row)
				wantAttempts, wantResends, wantRevokes := 1, uint64(1), uint64(1)
				if row == "token-held" {
					wantAttempts, wantRevokes = 2, 0
				}
				if attempts != wantAttempts || st.EndedResends != wantResends || st.StaleRevokes != wantRevokes {
					t.Errorf("%d attempts, %d resends, %d stale revocations; want %d, %d, %d",
						attempts, st.EndedResends, st.StaleRevokes, wantAttempts, wantResends, wantRevokes)
				}
			})
		}
	}
}

// runEndedWinner runs one TestEndedWinnerResend row and returns the
// transaction's attempts and the run's stats. The ended attempt is attempt 5
// of an app core that runs nothing, so its status register shows no attempt
// at all. The holder rows run multitasked: the core hosting the key's node
// serves the first request itself, marked busy as a backlog behind it would
// mark it, then serves on as usual.
func runEndedWinner(t *testing.T, backend Backend, row string) (int, *Stats) {
	const endedTx = 5
	token := row == "token-held"
	var attempts atomic.Int64
	_, st := runRanks(t, backend, func(c *Config) {
		c.TotalCores = 4
		if !token {
			c.Deployment = Multitask
		}
	}, func(s *System) func(rt *Runtime) {
		pool := s.Mem.Alloc(16, 0)
		addr, other := pool, pool+1
		ni := s.dir.Owner(addr)
		for s.dir.Owner(other) == ni {
			other++
		}
		n := s.nodes[ni]
		app := s.AppCores()
		slices.Sort(app)
		loser, ended := app[0], app[1]
		if !token {
			// Loser and ended core apart from the node's, and on net the
			// loser on the other rank.
			loser, ended = (n.core+2)%4, (n.core+1)%4
		}
		switch {
		case !s.localCore(n.core): // on net, the node is the other rank's
		case token:
			n.excl.held, n.excl.owner, n.excl.ownerTx = true, ended, endedTx
		default:
			n.table.SetWriter(addr, cm.Meta{Core: ended, TxID: endedTx, Prio: math.MinInt64})
		}
		return func(rt *Runtime) {
			switch {
			case rt.Core() == loser:
				n := rt.Run(func(tx *Tx) {
					if token {
						tx.OnAbort(func() {
							rel := getRelLocks()
							rel.Core, rel.TxID, rel.Exclusive = ended, endedTx, true
							rt.sendToNode(ni, rel)
						})
					}
					if row == "holder/write" {
						tx.Write(other, 1)
						tx.Write(addr, 1)
					} else {
						tx.Read(addr)
					}
				})
				attempts.Store(int64(n))
			case !token && rt.node == n:
				m := rt.proc.Recv() // the loser's first request
				n.busy = true
				n.handle(rt.proc, m)
				n.busy = false
			}
		}
	})
	return int(attempts.Load()), st
}

// plantHolder returns a TestConflictNackNamesWinner plant: a writer (or a
// reader) of addr on a core that runs nothing, with a priority every
// requester beats, whose attempt is Committing until the returned func
// marks it Committed.
func plantHolder(writer bool) func(s *System, n *dtmNode, addr mem.Addr) func() {
	return func(s *System, n *dtmNode, addr mem.Addr) func() {
		const enemyCore, enemyTx = 3, uint64(99)
		m := cm.Meta{Core: enemyCore, TxID: enemyTx, Prio: 1 << 40}
		if writer {
			n.table.SetWriter(addr, m)
		} else {
			n.table.AddReader(addr, m)
		}
		s.Regs.SetStatusLocal(enemyCore, enemyTx, mem.TxCommitting)
		return func() { s.Regs.SetStatusLocal(enemyCore, enemyTx, mem.TxCommitted) }
	}
}

// pauseServing waits a moment while the core's co-located DTM node, if any,
// keeps serving: a multitasked core that only paused would stall the other
// core's lock requests.
func pauseServing(rt *Runtime) {
	rt.drainRequests()
	rt.proc.Pause(5 * time.Microsecond)
}
