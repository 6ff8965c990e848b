package core

import (
	"errors"
	"testing"
)

// forUpdateDelta is what one core's counters moved by over a transaction.
type forUpdateDelta struct {
	attempts                int
	readReqs, writeReqs     uint64
	updates, unwritten, rts uint64
}

// forUpdateRun runs body on rt and returns the movement of rt's own counters
// (its shard, which only its worker writes) with the attempts it took.
func forUpdateRun(rt *Runtime, body func() int) forUpdateDelta {
	was := rt.shard
	n := body()
	return forUpdateDelta{
		attempts:  n,
		readReqs:  rt.shard.ReadLockReqs - was.ReadLockReqs,
		writeReqs: rt.shard.WriteLockReqs - was.WriteLockReqs,
		updates:   rt.shard.UpdateReads - was.UpdateReads,
		unwritten: rt.shard.UpdateReadsUnwritten - was.UpdateReadsUnwritten,
		rts:       rt.shard.CommitRoundTrips - was.CommitRoundTrips,
	}
}

// TestReadForUpdate: under visible reads, a Normal transaction body's read at
// a read-set position the body wrote in each of its last two commits takes
// the write lock, and its commit sends no request for the key. One core runs
// every body, alone, on each backend; the claims are its own counter deltas,
// and runRanks fails the row if any lock is left held after the run:
//   - a transfer site pays 2 read locks and a commit round trip for its first
//     two commits, and from the third on exactly 2 write-lock requests, both
//     at its reads, and no commit batch;
//   - a scan site that reads the transfer's two accounts first, after every
//     second transfer on the same core, never write-locks: the predictor is
//     keyed by the body, not the core;
//   - a site whose written position alternates never predicts: a position
//     must be written in both of the last two commits;
//   - an attempt of a warm site that retries or is withdrawn, before or after
//     its writes, releases the write locks its reads took; only a commit
//     that did not write them counts them as unwritten, and the site's next
//     attempt predicts nothing;
//   - ElasticEarly, ElasticRead and ReadOnly bodies, and every body under
//     TL2 (sim and live: net has no shared version clock), never predict.
func TestReadForUpdate(t *testing.T) {
	for _, row := range []struct {
		name    string
		backend Backend
	}{{"sim", BackendSim}, {"live", BackendLive}, {"net", BackendNet}} {
		t.Run(row.name, func(t *testing.T) {
			t.Run("visible", func(t *testing.T) { readForUpdateVisible(t, row.backend) })
			if row.backend != BackendNet { // TL2 needs a shared version clock
				t.Run("tl2", func(t *testing.T) { readForUpdateTL2(t, row.backend) })
			}
		})
	}
}

func readForUpdateVisible(t *testing.T, backend Backend) {
	_, st := runRanks(t, backend, nil, func(s *System) func(rt *Runtime) {
		a := NewTArray(s, Uint64Codec(), 8, 100)
		worker := firstApp(s)
		return func(rt *Runtime) {
			if rt.Core() != worker {
				return
			}
			transfer := func() int {
				return rt.Run(func(tx *Tx) {
					f, to := a.Get(tx, 0), a.Get(tx, 1)
					a.Set(tx, 0, f-1)
					a.Set(tx, 1, to+1)
				})
			}
			scan := func() int {
				return rt.Run(func(tx *Tx) {
					for i := range 8 {
						a.Get(tx, i)
					}
				})
			}
			for i := 1; i <= 6; i++ {
				d := forUpdateRun(rt, transfer)
				warm := forUpdateDelta{attempts: 1, readReqs: 2, writeReqs: d.writeReqs, rts: 1}
				if i >= 3 {
					warm = forUpdateDelta{attempts: 1, writeReqs: 2, updates: 2}
				}
				if d != warm || d.writeReqs == 0 {
					t.Errorf("transfer %d: %+v, want %+v", i, d, warm)
				}
				if i%2 == 0 {
					if d := forUpdateRun(rt, scan); d.updates != 0 || d.writeReqs != 0 {
						t.Errorf("scan after transfer %d write-locked: %+v", i, d)
					}
				}
			}

			for i := range 6 {
				d := forUpdateRun(rt, func() int {
					return rt.Run(func(tx *Tx) {
						x, y := a.Get(tx, 2), a.Get(tx, 3)
						if i%2 == 0 {
							a.Set(tx, 2, x+1)
						} else {
							a.Set(tx, 3, y+1)
						}
					})
				})
				if d.updates != 0 || d.rts != 1 {
					t.Errorf("alternating write %d: %+v, want no read for update, one commit round trip", i, d)
				}
			}

			errStop := errors.New("stop")
			const (
				commit = iota
				retryOnce
				withdrawAfterWrite
				withdrawBeforeWrite
				commitBeforeWrite
			)
			// The aborts are the last attempts on accounts 4 and 5, so a lock
			// they leave behind is still held when runRanks checks; the site
			// then moves to accounts 2 and 3, where positions, not keys, keep
			// predicting.
			mode, retried, at := commit, false, 4
			body := func(tx *Tx) error {
				f, to := a.Get(tx, at), a.Get(tx, at+1)
				switch mode {
				case withdrawBeforeWrite:
					return errStop
				case commitBeforeWrite:
					return nil
				}
				a.Set(tx, at, f-1)
				a.Set(tx, at+1, to+1)
				switch {
				case mode == retryOnce && !retried:
					retried = true
					return ErrRetry
				case mode == withdrawAfterWrite:
					return errStop
				}
				return nil
			}
			atomic := func(m, account int) (forUpdateDelta, error) {
				mode, at = m, account
				var err error
				d := forUpdateRun(rt, func() int { err = rt.Atomic(body); return 0 })
				return d, err
			}
			for range 2 {
				if _, err := atomic(commit, 4); err != nil {
					t.Error(err)
				}
			}
			for _, c := range []struct {
				mode, account            int
				updates, unwritten, reqs uint64
				err                      error
			}{
				{mode: retryOnce, account: 4, updates: 4, reqs: 4},
				{mode: withdrawAfterWrite, account: 4, updates: 2, reqs: 2, err: errStop},
				{mode: withdrawBeforeWrite, account: 4, updates: 2, reqs: 2, err: errStop},
				{mode: commitBeforeWrite, account: 2, updates: 2, unwritten: 2, reqs: 2},
				{mode: commit, account: 2},
			} {
				d, err := atomic(c.mode, c.account)
				want := forUpdateDelta{writeReqs: c.reqs, updates: c.updates, unwritten: c.unwritten}
				if c.updates == 0 { // no prediction: the commit takes the write locks
					want = forUpdateDelta{readReqs: 2, writeReqs: max(d.writeReqs, 1), rts: 1}
				}
				if d != want || err != c.err {
					t.Errorf("mode %d: %+v, error %v; want %+v, error %v", c.mode, d, err, want, c.err)
				}
			}

			for _, kind := range []TxKind{ElasticEarly, ElasticRead, ReadOnly} {
				for i := range 4 {
					d := forUpdateRun(rt, func() int {
						return rt.RunKind(kind, func(tx *Tx) {
							f, to := a.Get(tx, 6), a.Get(tx, 7)
							if kind != ReadOnly {
								a.Set(tx, 6, f-1)
								a.Set(tx, 7, to+1)
							}
						})
					})
					if d.updates != 0 {
						t.Errorf("%v transaction %d read for update: %+v", kind, i, d)
					}
				}
			}
		}
	})
	if st.UpdateReads == 0 {
		t.Error("no read took a write lock")
	}
}

func readForUpdateTL2(t *testing.T, backend Backend) {
	_, st := runRanks(t, backend, func(c *Config) { c.Protocol = ProtocolTL2 }, func(s *System) func(rt *Runtime) {
		a := NewTArray(s, Uint64Codec(), 2, 100)
		worker := firstApp(s)
		return func(rt *Runtime) {
			if rt.Core() != worker {
				return
			}
			for range 4 {
				rt.Run(func(tx *Tx) {
					f, to := a.Get(tx, 0), a.Get(tx, 1)
					a.Set(tx, 0, f-1)
					a.Set(tx, 1, to+1)
				})
			}
		}
	})
	if st.UpdateReads != 0 || st.ReadLockReqs != 0 || st.Commits != 4 {
		t.Errorf("tl2: %d reads for update, %d read-lock requests, %d commits; want none, none, 4", st.UpdateReads, st.ReadLockReqs, st.Commits)
	}
}
