package live_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/core"
)

// TestLiveRetryStormBounded: one real conflict must not be charged hundreds
// of times. The holder read-locks account 0 and then sits inside its body
// for 2 ms — a lock holder the host has descheduled. The loser has committed
// enough to rank below it under FairCM, so its transfer out of account 0 is
// NACKed (WAR) until the holder finishes, and nothing it sends meanwhile can
// succeed. Retrying at once cost an attempt every 10-20 us — 89 to 210 of
// them in 27 of 31 runs of an early commit. The NACK names the holder's
// attempt, and the loser waits for it to end before it retries, so it
// commits on its second attempt. (Under -race an attempt costs 100 us and
// 2 ms never fitted more than 23: there the test is about conservation and
// the lock tables.) The host deschedules the test's goroutines too, so a
// try in which the loser arrived after the holder had left is run again.
func TestLiveRetryStormBounded(t *testing.T) {
	for try := 0; try < 3; try++ {
		attempts := retryStorm(t)
		t.Logf("the loser committed on attempt %d", attempts)
		if 2 <= attempts && attempts <= 24 {
			return
		}
	}
	t.Error("in three tries the loser never got past a 2 ms holder in 2 to 24 attempts")
}

// retryStorm runs the scenario once and returns the loser's attempt count.
func retryStorm(t *testing.T) (attempts int) {
	s := liveSystem(t, core.ProtocolVisible, func(c *core.Config) { c.TotalCores = 4 })
	const accounts, funds = 4, 1000
	a := core.NewTArray(s, core.Uint64Codec(), accounts, uint64(funds))
	transfer := func(rt *core.Runtime, from, to int) int {
		return rt.Run(func(tx *core.Tx) {
			f, v := a.Get(tx, from), a.Get(tx, to)
			a.Set(tx, from, f-1)
			a.Set(tx, to, v+1)
		})
	}
	var ranked, held atomic.Bool
	s.SpawnWorkers(func(rt *core.Runtime) {
		if rt.AppIndex() == 0 { // the loser
			for i := 0; i < 64; i++ {
				transfer(rt, 2, 3) // effective time the holder will not have
			}
			ranked.Store(true)
			for !held.Load() {
				runtime.Gosched()
			}
			attempts = transfer(rt, 0, 1)
			return
		}
		for !ranked.Load() {
			runtime.Gosched()
		}
		rt.Run(func(tx *core.Tx) {
			a.Get(tx, 0)
			held.Store(true)
			for start := time.Now(); time.Since(start) < 2*time.Millisecond; {
				runtime.Gosched() // a holder that is away, not one that is computing
			}
		})
	})
	st := s.RunToCompletion()
	checkQuiesced(t, s, st)
	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += a.GetRaw(i)
	}
	if sum != accounts*funds {
		t.Errorf("money not conserved: %d != %d", sum, accounts*funds)
	}
	if st.MaxAttempts != uint64(attempts) {
		t.Errorf("Stats.MaxAttempts = %d, the longest operation took %d attempts", st.MaxAttempts, attempts)
	}
	return attempts
}

// TestLiveOversubscribedCommitRate: 48 cores on however few CPUs the host
// has, every core running bank operations over 1,024 accounts, each row one
// 300 ms window on a shared host; a window below a bar is run again.
//
//	transfers  every operation a two-account transfer. Two transfers
//	           rarely overlap, so nearly every attempt should commit — and
//	           did not while a core that lost to a descheduled holder
//	           retried at once: 38 to 84 % in twelve windows of an early
//	           commit; 92.2-92.8 % in ten with losers waiting for the winner
//	           their NACK names (93.2-93.9 % with the random retry wait it
//	           replaced).
//	balance20  the paper's Fig. 5(a)/(c) mix under FairCM: one operation in
//	           five a balance scan of every account. In twelve windows with
//	           losers waiting for the named winner, 55.1-60.7 % of attempts
//	           committed and the longest operation took 12-26 attempts; with
//	           the random retry wait, 53.4-60.7 % and 10-27. The commit bar
//	           sits below both sides' minima, the attempts bar above both
//	           sides' maxima.
func TestLiveOversubscribedCommitRate(t *testing.T) {
	rows := []struct {
		name        string
		balancePct  int
		bar         float64 // minimum commit rate, %
		maxAttempts uint64  // most attempts for one operation; 0: unchecked
	}{
		{"transfers", 0, 85, 0},
		{"balance20", 20, 50, 40},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for try := 0; try < 3; try++ {
				s := liveSystem(t, core.ProtocolVisible, func(c *core.Config) { c.TotalCores = 48 })
				b := bank.New(s, 1024)
				s.SpawnWorkers(b.TransferWorker(row.balancePct))
				st := s.Run(300 * time.Millisecond)
				checkQuiesced(t, s, st)
				if b.TotalRaw() != b.Total() {
					t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
				}
				t.Logf("commit rate %.1f %% (%d commits, %d aborts, most attempts for one operation %d)",
					st.CommitRate(), st.Commits, st.Aborts, st.MaxAttempts)
				if st.CommitRate() >= row.bar && (row.maxAttempts == 0 || st.MaxAttempts <= row.maxAttempts) {
					return
				}
			}
			t.Errorf("three windows of 48 oversubscribed cores, none within the bars: %.0f %% of attempts committed, at most %d attempts for one operation (0: any)",
				row.bar, row.maxAttempts)
		})
	}
}
