package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
)

func TestIrrevocableRunsExactlyOnce(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	runs := 0
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunIrrevocable(func(ir *Irrevocable) {
			runs++ // a side effect: must happen exactly once
			ir.Write(a, ir.Read(a)+1)
		})
	})
	st := s.RunToCompletion()
	if runs != 1 {
		t.Fatalf("irrevocable body ran %d times", runs)
	}
	if s.Mem.ReadRaw(a) != 1 {
		t.Fatal("irrevocable write lost")
	}
	if st.Irrevocables != 1 {
		t.Fatalf("Irrevocables = %d", st.Irrevocables)
	}
	if st.Commits != 1 {
		t.Fatalf("Commits = %d: an irrevocable transaction counts as a commit", st.Commits)
	}
	if s.LockedAddrs() != 0 {
		t.Fatal("locks leaked")
	}
}

func TestIrrevocableAtomicAgainstTransactions(t *testing.T) {
	// Core 0 repeatedly runs an irrevocable read-modify-write over two
	// words that must stay equal; other cores update the pair
	// transactionally. Neither side may observe or produce a torn pair.
	s := testSystem(t, func(c *Config) { c.Policy = cm.FairCM })
	pair := s.Mem.Alloc(2, 0)
	const perCore = 15
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() == 0 {
			for i := 0; i < perCore; i++ {
				rt.RunIrrevocable(func(ir *Irrevocable) {
					x := ir.Read(pair)
					y := ir.Read(pair + 1)
					if x != y {
						t.Errorf("irrevocable observed torn pair: %d != %d", x, y)
					}
					ir.Write(pair, x+1)
					ir.Write(pair+1, y+1)
				})
			}
			return
		}
		for i := 0; i < perCore; i++ {
			rt.Run(func(tx *Tx) {
				x := tx.Read(pair)
				y := tx.Read(pair + 1)
				if x != y {
					t.Errorf("transaction observed torn pair: %d != %d", x, y)
				}
				tx.Write(pair, x+1)
				tx.Write(pair+1, y+1)
			})
		}
	})
	s.RunToCompletion()
	x, y := s.Mem.ReadRaw(pair), s.Mem.ReadRaw(pair+1)
	if x != y {
		t.Fatalf("final pair torn: %d != %d", x, y)
	}
	want := uint64(perCore * s.NumAppCores())
	if x != want {
		t.Fatalf("pair = %d, want %d (lost updates)", x, want)
	}
	if s.LockedAddrs() != 0 {
		t.Fatal("locks leaked")
	}
}

func TestTwoIrrevocablesSerialize(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() > 1 {
			return
		}
		for i := 0; i < 10; i++ {
			rt.RunIrrevocable(func(ir *Irrevocable) {
				ir.Write(a, ir.Read(a)+1)
			})
		}
	})
	s.RunToCompletion()
	if got := s.Mem.ReadRaw(a); got != 20 {
		t.Fatalf("counter = %d, want 20 (irrevocables interleaved!)", got)
	}
}

func TestIrrevocableUnderMultitask(t *testing.T) {
	s := testSystem(t, func(c *Config) { c.Deployment = Multitask; c.TotalCores = 4 })
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		rt.RunIrrevocable(func(ir *Irrevocable) {
			ir.Write(a, ir.Read(a)+1)
		})
	})
	s.RunToCompletion()
	if got := s.Mem.ReadRaw(a); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
}

func TestStaleExclusiveReleaseIgnored(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		// A stray release for a token nobody holds must be a no-op.
		for ni := range s.nodes {
			rel := &relLocks{Core: rt.Core(), TxID: 9999, Exclusive: true}
			s.send(&rt.shard, rt.rec, rt.Port(), rt.Core(), s.nodePorts[ni], s.nodes[ni].core, rel, rel.bytes())
		}
		rt.RunIrrevocable(func(ir *Irrevocable) { ir.Write(a, 1) })
		rt.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
	})
	s.RunToCompletion()
	if got := s.Mem.ReadRaw(a); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
}

// updateGolden rewrites this package's golden files.
var updateGolden = flag.Bool("update", false, "rewrite testdata/irrevocable_mix.golden")

// TestIrrevocableMixFingerprint pins a bank run where 5 % of the transfers
// are irrevocable among ordinary optimistic ones (sim, 8 cores, 64
// accounts, 800 µs of virtual time): the run's Stats must stay
// bit-identical to testdata/irrevocable_mix.golden, the balance total must
// be conserved and no lock may survive the drain. This is the pin on the
// irrevocable path under contention. Regenerate with:
// go test ./internal/core -run IrrevocableMixFingerprint -update
func TestIrrevocableMixFingerprint(t *testing.T) {
	const accounts, initial = 64, 1000
	const golden = "testdata/irrevocable_mix.golden"
	var rows strings.Builder
	for _, seed := range []uint64{3, 9} {
		s := testSystem(t, func(cfg *Config) { cfg.Seed = seed })
		accts := NewTArray(s, Uint64Codec(), accounts, initial)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				if r.Intn(100) < 5 {
					rt.RunIrrevocable(func(ir *Irrevocable) {
						f, tv := accts.At(from).GetIr(ir), accts.At(to).GetIr(ir)
						accts.At(from).SetIr(ir, f-1)
						accts.At(to).SetIr(ir, tv+1)
					})
				} else {
					rt.Run(func(tx *Tx) {
						f, tv := accts.Get(tx, from), accts.Get(tx, to)
						accts.Set(tx, from, f-1)
						accts.Set(tx, to, tv+1)
					})
				}
				rt.AddOps(1)
			}
		})
		st := s.Run(800 * time.Microsecond)
		if st.Irrevocables == 0 {
			t.Errorf("seed %d: no irrevocable transaction ran", seed)
		}
		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += accts.GetRaw(i)
		}
		if sum != accounts*initial {
			t.Errorf("seed %d: balance total %d, want %d", seed, sum, accounts*initial)
		}
		if n := s.LockedAddrs(); n != 0 {
			t.Errorf("seed %d: %d locks leaked", seed, n)
		}
		fmt.Fprintf(&rows, "== irrevocable-mix sim %d\nops %d\ncommits %d\naborts %d\nirrevocables %d\nmsgs %d\nduration %d\n",
			seed, st.Ops, st.Commits, st.Aborts, st.Irrevocables, st.Msgs, st.Duration)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(rows.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	// One stat a line: every differing line is one moved cell.
	wl, gl := strings.Split(string(want), "\n"), strings.Split(rows.String(), "\n")
	var row string
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "== ") {
			row = w[3:]
		}
		if w != g {
			t.Errorf("%s: %q → %q — simulated behavior changed", row, w, g)
		}
	}
}

func TestIrrevocableStatusNotAbortable(t *testing.T) {
	s := testSystem(t, nil)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunIrrevocable(func(ir *Irrevocable) {
			// A CM-style CAS from pending must fail: the register was set
			// directly to committing.
			id, st := s.Regs.LoadStatusLocal(rt.Core())
			if st != mem.TxCommitting {
				t.Errorf("irrevocable status = %v, want committing", st)
			}
			if s.Regs.CASStatusLocal(rt.Core(), id, mem.TxPending, mem.TxAborted) {
				t.Error("irrevocable transaction was abortable")
			}
		})
	})
	s.RunToCompletion()
}
