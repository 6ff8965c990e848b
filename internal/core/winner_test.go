package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
)

// warRow is one run of TestWARLoserWaitsForWinner: a long read-only scan on
// the lowest app core holds the read locks of two accounts, and a transfer
// on the next app core, started once the scan holds them, loses the WAR
// conflict its commit meets.
type warRow struct {
	name    string
	backend Backend
	policy  cm.Policy
	deploy  Deployment
	// attempts pins the transfer's attempts on sim under a policy that does
	// not wait: the count the runtime gave before losers waited for winners
	// (FairCM's was 70 too, 68 of them while the scan was live), less one
	// for no-cm and offset-greedy since an aborted attempt's release rides
	// the retry's first lock request.
	attempts int
}

// warOutcome is what a row observed of the transfer.
type warOutcome struct {
	attempts  int // attempts the transfer used
	whileLive int // attempts after the first that began while the scan's attempt was live
	stats     *Stats
}

// TestWARLoserWaitsForWinner: under the fixed-priority policies a transfer
// that loses WAR to a scan sends nothing more while the scan's attempt is
// live and commits within two attempts of its end; under the others it
// retries exactly as before. Every run ends with empty, consistent lock
// tables. The live row also runs in CI's -race step, the net rows in the net
// job's.
func TestWARLoserWaitsForWinner(t *testing.T) {
	rows := []warRow{
		{name: "sim/no-cm", policy: cm.NoCM, attempts: 69},
		{name: "sim/backoff", policy: cm.BackoffRetry, attempts: 11},
		{name: "sim/offset-greedy", policy: cm.OffsetGreedy, attempts: 69},
		{name: "sim/wholly", policy: cm.Wholly},
		{name: "sim/faircm", policy: cm.FairCM},
		{name: "sim/faircm-multitask", policy: cm.FairCM, deploy: Multitask},
		{name: "live/faircm", backend: BackendLive, policy: cm.FairCM},
		{name: "live/no-cm", backend: BackendLive, policy: cm.NoCM},
		{name: "net/faircm", backend: BackendNet, policy: cm.FairCM},
		{name: "net/offset-greedy", backend: BackendNet, policy: cm.OffsetGreedy},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out := runWARRow(t, row)
			waits := out.stats.WinnerWaits
			if row.policy.StarvationFree() {
				if out.whileLive != 0 || out.attempts-1-out.whileLive > 2 {
					t.Errorf("transfer: %d attempts, %d of them retries while the scan was live; want none, and a commit within 2 attempts of the scan's end",
						out.attempts, out.whileLive)
				}
				if waits == 0 || out.stats.WinnerWaitTime <= 0 {
					t.Errorf("%d winner waits lasting %v; want at least one", waits, out.stats.WinnerWaitTime)
				}
				return
			}
			if waits != 0 {
				t.Errorf("%d winner waits under %v, which does not wait", waits, row.policy)
			}
			if row.backend == BackendSim && out.attempts != row.attempts {
				t.Errorf("transfer took %d attempts, want %d as before winner waits", out.attempts, row.attempts)
			}
			if out.whileLive == 0 {
				t.Errorf("transfer never retried while the scan was live (%d attempts)", out.attempts)
			}
		})
	}
}

// runWARRow runs one row, on every rank of a net row, and checks the lock
// tables once the run has drained.
func runWARRow(t *testing.T, row warRow) warOutcome {
	t.Helper()
	hold := port.Time(2 * time.Millisecond) // virtual on sim
	if row.backend != BackendSim {
		hold = port.Time(20 * time.Millisecond)
	}
	var (
		held   atomic.Bool   // the scan holds its read locks
		lost   atomic.Bool   // the transfer has lost to the scan once
		scanTx atomic.Uint64 // the scan's attempt
		out    warOutcome
	)
	_, out.stats = runRanks(t, row.backend, func(c *Config) {
		c.TotalCores, c.Policy, c.Deployment = 4, row.policy, row.deploy
	}, func(s *System) func(rt *Runtime) {
		accts := s.Mem.Alloc(2, 0)
		app := s.AppCores()
		slices.Sort(app)
		scanCore, xferCore := app[0], app[1]
		return func(rt *Runtime) {
			switch rt.Core() {
			case scanCore:
				rt.RunReadOnly(func(tx *Tx) {
					tx.Read(accts)
					tx.Read(accts + 1)
					scanTx.Store(tx.ID())
					held.Store(true)
					for end := rt.proc.Now() + hold; rt.proc.Now() < end || !lost.Load(); {
						pauseServing(rt)
					}
				})
			case xferCore:
				for !held.Load() {
					pauseServing(rt)
				}
				attempts := 0
				out.attempts = rt.Run(func(tx *Tx) {
					tx.OnAbort(func() { lost.Store(true) })
					if attempts++; attempts > 1 {
						_, id, st := rt.s.Regs.CASStatusRemoteObserve(rt.proc, rt.core, scanCore, 0, mem.TxFree, mem.TxFree)
						if id == scanTx.Load() && st == mem.TxPending {
							out.whileLive++
						}
					}
					a, b := tx.Read(accts), tx.Read(accts+1)
					tx.Write(accts, a-1)
					tx.Write(accts+1, b+1)
				})
			}
		}
	})
	return out
}

// pauseServing waits a moment while the core's co-located DTM node, if any,
// keeps serving: a multitasked core that only paused would stall the other
// core's lock requests.
func pauseServing(rt *Runtime) {
	rt.drainRequests()
	rt.proc.Pause(5 * time.Microsecond)
}
