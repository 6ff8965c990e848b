package main

import (
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/placement"
)

// initialBalance funds every account; conservation of the total is the
// end-of-run check on every workload.
const initialBalance = 1000

// spec is one workload. All five run the bank on a closed loop — one
// in-flight operation per application core — with FairCM and half the cores
// dedicated to the DTM service; they differ in backend, protocol, placement,
// universe size and operation mix, chosen so that each puts its time into
// different layers (see README.md).
type spec struct {
	name     string
	why      string
	backend  core.Backend
	cores    int // total; half are application workers, half DTM nodes
	accounts int
	// virtPerWall converts the round's wall durations to virtual time on
	// sim: the simulator runs roughly this many virtual seconds per host
	// second on the reference host, so a sim round costs about as much host
	// time as a live one.
	virtPerWall float64
	// procs, when set, is the GOMAXPROCS the workload runs under. The
	// simulator executes one goroutine at a time by construction; on more
	// than one P the hand-offs between its coroutines land on different
	// threads at random, which made its speed vary by 8 % between runs of one
	// seed against 2 % on a single P (and 30 % slower).
	procs int
	tune  func(*core.Config)
	op    func(*worker) error
}

func (sp *spec) config(seed uint64) core.Config {
	c := core.Config{
		Platform:   noc.SCC(0),
		Backend:    sp.backend,
		Seed:       seed,
		TotalCores: sp.cores,
		Policy:     cm.FairCM,
	}
	if sp.tune != nil {
		sp.tune(&c)
	}
	return c
}

var specs = []*spec{
	{
		name:     "live-bank",
		why:      "paper's bank, visible reads, hash placement, no coalescing: core tx/rpc/dtm, dslock, cm and the live mailbox do the work",
		backend:  core.BackendLive,
		cores:    4,
		accounts: 1024,
		op:       (*worker).opTransfer,
	},
	{
		name:     "live-readmostly-tl2",
		why:      "TL2, 90% 8-account read-only txs beside 10% updates: mem version table and VClock work, DTM plane and mailbox nearly idle",
		backend:  core.BackendLive,
		cores:    4,
		accounts: 65536,
		tune:     func(c *core.Config) { c.Protocol = core.ProtocolTL2 },
		op:       (*worker).opReadMostly,
	},
	{
		name:     "live-place-hier",
		why:      "hier placement over 2^20 accounts, uniform and conflict-free: the case adaptive placement cannot help; live-bank is its bypass",
		backend:  core.BackendLive,
		cores:    4,
		accounts: 1 << 20,
		tune: func(c *core.Config) {
			c.Placement = placement.AdaptiveHier
			c.RepartitionEpoch = 1024
		},
		op: (*worker).opTransfer,
	},
	{
		name:     "net-bank",
		why:      "two ranks over one unix socket, coalescing on: half the lock traffic and all of rank 1's memory accesses cross wire and net",
		backend:  core.BackendNet,
		cores:    4,
		accounts: 1024,
		tune: func(c *core.Config) {
			c.Coalesce = true
			c.Net = &core.NetConfig{Ranks: 2}
		},
		op: (*worker).opTransfer,
	},
	{
		name:        "sim-bank-scc48",
		why:         "paper Fig. 5(a) point: 48-core SCC, 20% balance scans: cm, abort/retry and dslock scans in virtual time, sim kernel and noc in host time",
		backend:     core.BackendSim,
		cores:       48,
		accounts:    1024,
		virtPerWall: 0.13,
		procs:       1,
		op:          (*worker).opBankMix,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// get and set are the only places a worker touches shared data; in a traced
// window each call is one span — which is why the operations below are
// written here against TArray rather than borrowed from internal/apps/bank.
func (w *worker) get(tx *core.Tx, i int) uint64 {
	if w.tr == nil {
		return w.accts.Get(tx, i)
	}
	t0 := w.clock.Now()
	v := w.accts.Get(tx, i)
	w.tr.access(spanRead, t0, w.clock.Now())
	return v
}

func (w *worker) set(tx *core.Tx, i int, v uint64) {
	if w.tr == nil {
		w.accts.Set(tx, i, v)
		return
	}
	t0 := w.clock.Now()
	w.accts.Set(tx, i, v)
	w.tr.access(spanWrite, t0, w.clock.Now())
}

func (w *worker) bodyStart() {
	if w.tr != nil {
		w.tr.attempt()
	}
}

func (w *worker) bodyEnd() {
	if w.tr != nil {
		w.tr.bodyDone()
	}
}

// opTransfer moves one unit between two distinct uniformly drawn accounts.
func (w *worker) opTransfer() error {
	n := w.sp.accounts
	w.a = w.rng.Intn(n)
	w.b = (w.a + 1 + w.rng.Intn(n-1)) % n
	return w.rt.Atomic(w.transfer)
}

func (w *worker) transferBody(tx *core.Tx) error {
	w.bodyStart()
	f := w.get(tx, w.a)
	t := w.get(tx, w.b)
	w.set(tx, w.a, f-1)
	w.set(tx, w.b, t+1)
	w.bodyEnd()
	return nil
}

// opBankMix is the Fig. 5(a) mix: 20 % full balance scans, 80 % transfers.
func (w *worker) opBankMix() error {
	if w.rng.Intn(100) < 20 {
		return w.rt.Atomic(w.scan)
	}
	return w.opTransfer()
}

// scanBody sums every account; a committed scan must see the exact total.
func (w *worker) scanBody(tx *core.Tx) error {
	w.bodyStart()
	var sum uint64
	for i := 0; i < w.sp.accounts; i++ {
		sum += w.get(tx, i)
	}
	w.tripped = sum != uint64(w.sp.accounts)*initialBalance
	w.bodyEnd()
	return nil
}

// readPairs is how many adjacent account pairs a read-only transaction of
// live-readmostly-tl2 reads.
const readPairs = 4

// opReadMostly treats the accounts as pairs (2p, 2p+1) whose sum never
// changes: 90 % of the operations read four adjacent pairs in a declared
// read-only transaction and check every sum, 10 % move one unit inside a
// pair.
func (w *worker) opReadMostly() error {
	pairs := w.sp.accounts / 2
	if w.rng.Intn(10) > 0 {
		w.a = w.rng.Intn(pairs - readPairs + 1)
		return w.rt.AtomicReadOnly(w.pairs)
	}
	w.a = w.rng.Intn(pairs)
	w.flip = w.rng.Intn(2) == 1
	return w.rt.Atomic(w.pairXfer)
}

func (w *worker) pairsBody(tx *core.Tx) error {
	w.bodyStart()
	bad := false
	for p := w.a; p < w.a+readPairs; p++ {
		if w.get(tx, 2*p)+w.get(tx, 2*p+1) != 2*initialBalance {
			bad = true
		}
	}
	w.tripped = bad
	w.bodyEnd()
	return nil
}

func (w *worker) pairXferBody(tx *core.Tx) error {
	w.bodyStart()
	from, to := 2*w.a, 2*w.a+1
	if w.flip {
		from, to = to, from
	}
	f := w.get(tx, from)
	t := w.get(tx, to)
	if f == 0 {
		from, to, f, t = to, from, t, f
	}
	w.tripped = f+t != 2*initialBalance
	w.set(tx, from, f-1)
	w.set(tx, to, t+1)
	w.bodyEnd()
	return nil
}
