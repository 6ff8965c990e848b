package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"time"

	"repro/internal/cm"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

// Runtime is the transactional runtime of one application core: the APP
// service of Figure 1. Application workers receive it from SpawnWorkers and
// execute transactions with Run/RunKind. All of a Runtime's mutable state —
// including its counter shard and histograms — belongs to its own execution
// port, so the live backend's concurrent workers never share a write.
type Runtime struct {
	s       *System
	core    int // physical core ID
	appIdx  int
	cluster int // locality cluster of core (noc.Platform.ClusterOf)
	proc    port.Port
	app     port.Port // proc as Port hands it to the workload (appPort)
	local   *cm.Local
	node    *dtmNode // co-located DTM node (Multitask only)

	nextTxID   uint64
	abortSig   abortSignal // the attempt's pending abort, see signal
	stats      CoreStats
	shard      Stats          // this core's counters, merged at snapshot
	life       hist.Histogram // committed-transaction lifespans
	commitLat  hist.Histogram // commit-phase latencies
	scatterLat hist.Histogram // commit write-lock scatter-burst latencies
	gatherLat  hist.Histogram // commit response-gather latencies
	revalLat   hist.Histogram // TL2 read-set revalidation latencies

	// winner is the attempt that beat this core's last attempt, as its
	// conflict NACK named it (conflictAbort; Core < 0: none): runLoop waits
	// for it to end before the next attempt (awaitWinner). winPolled: the
	// loser read the winner's register once before it aborted, and saw it
	// running (winnerEnded).
	winner    cm.Meta
	winPolled bool

	// rec is the core's flight-recorder lane (nil when Config.Trace is
	// unset; every emit is then a single nil comparison).
	rec *trace.Recorder

	// RPC-layer state (rpc.go): the correlation-ID generator, the IDs
	// currently awaited, the reusable selective-receive predicate, and the
	// net backend's bounded-receive capability (nil elsewhere; awaits then
	// block indefinitely, which lossless transports permit).
	reqID        uint64
	awaitIDs     []uint64
	awaitPred    func(port.Msg) bool
	deadlineRecv *port.HostPort

	// Hot-path scratch, all single-consumer state of this runtime's port:
	// one attempt is ever live per runtime, so the commit and read paths
	// reuse these across attempts and allocate nothing in steady state.
	// tx is the reusable attempt (reset per attempt); words is the arena
	// backing the tx-internal word copies (write-set values, TL2's first-read
	// values, window entries), reset at attempt start — values handed to user
	// code are always fresh clones (cloneWords), never arena slices, so
	// callers may retain them. readBuf holds the words a visible read
	// returns, valid until the transaction's next operation (readNView), and
	// aheadBuf those of the keys a read locks ahead (lockedRead).
	txScratch    *Tx
	words        []uint64
	readBuf      []uint64
	aheadBuf     []uint64
	lockKeys     []mem.Addr  // rpcLock's key list: one key, or a read-ahead batch
	scatterIDs   []uint64    // scatter-gather correlation IDs
	scatterResps []*respLock // scatter-gather response slots
	groups       []nodeGroup // commitBatches' groups, in first-use order
	rels         []relDraft  // releases being drafted, in first-use order
	groupIdx     []int32     // DTM node → groups or rels index + 1; all 0 between uses
	wkKeys       []mem.Addr  // writeKeys result
	wbAddrs      []mem.Addr  // commit write-back address list
	wbVals       []uint64    // commit write-back value list
	winBuf       []uint64    // windowChanged re-read buffer
	rvBuf        []uint64    // TL2 clock-snapshot buffer (tx.rv)

	// carry is the finished attempts' releases, at most one per DTM node,
	// in first-use order, each a node's share of an attempt's lock set
	// (releaseAll): no message exists for one until it leaves. The core's
	// next lock request to a node carries that node's (carryOn), and
	// sendCarry sends the rest on their own before the core next waits
	// (between attempts, for a winner, a token or a barrier, in a compute or
	// a pause) or exits. A release may so outlive several attempts: an idle
	// node revokes a finished attempt's lock (dtmNode.revokeFinished).
	// riding keeps, on net only, the entry of each release carried by a
	// request still unanswered: the request may be lost with its release,
	// which timeoutAbort then drafts again. lockSets is the sets no entry
	// refers to any more, for the next attempts to end.
	carry    []relDraft
	riding   []relDraft
	lockSets lockSets

	// sites is the read-for-update predictor: the transaction bodies this
	// core ran last, replaced round-robin from siteNext (Tx.forUpdate).
	sites    [8]txSite
	siteNext int

	barrierEpoch uint64
	barrierSeen  map[uint64]int
}

// wordBuf carves n words out of the runtime's word arena, reset at every
// attempt start, and returns them with their span: they back only
// attempt-internal state (write-set and TL2 first-read values, window
// entries), and anything kept longer is cloned (cloneWords). A full arena
// grows by copying, since the sets' values are offsets; slices handed out
// earlier keep the old array.
func (rt *Runtime) wordBuf(n int) (wordSpan, []uint64) {
	off := len(rt.words)
	if off+n > cap(rt.words) {
		grown := make([]uint64, off, max(2*cap(rt.words), off+n, 64))
		copy(grown, rt.words)
		rt.words = grown
	}
	rt.words = rt.words[:off+n]
	return wordSpan{uint32(off), uint32(n)}, rt.words[off : off+n : off+n]
}

// scratchWords returns n words of *buf, growing it if it is shorter.
func scratchWords(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	return (*buf)[:n]
}

func (rt *Runtime) initLocal() {
	rt.local = cm.NewLocal(rt.s.cfg.Policy, rt.core, rt.proc.Rand())
	rt.app = appPort{rt.proc, rt}
	rt.winner.Core = -1
	rt.barrierSeen = make(map[uint64]int)
	rt.groupIdx = make([]int32, len(rt.s.nodes))
	rt.initRPC()
}

// Core returns the physical core ID.
func (rt *Runtime) Core() int { return rt.core }

// AppIndex returns the index of this core within the application partition.
func (rt *Runtime) AppIndex() int { return rt.appIdx }

// Port returns the core's execution port (clock, RNG, mailbox). A Pause on
// it sends the core's carried releases first, as every wait of the runtime
// does: a release never waits with the core. A worker that waits for
// another core must wait through it (or the runtime), not block elsewhere.
func (rt *Runtime) Port() Port { return rt.app }

// appPort is the port the workload sees: the core's own, except that a
// pause is the runtime's wait.
type appPort struct {
	port.Port
	rt *Runtime
}

func (p appPort) Pause(d time.Duration) { p.rt.wait(d) }

// Rand returns the core's deterministic random source.
func (rt *Runtime) Rand() *port.Rand { return rt.proc.Rand() }

// Mem returns the shared memory (for direct, weakly-atomic accesses; see
// §2 — transactional data must not be accessed non-transactionally while
// transactions may touch it).
func (rt *Runtime) Mem() *mem.Memory { return rt.s.Mem }

// Stopped reports whether the system's virtual deadline has passed; worker
// loops use it as their exit condition.
func (rt *Runtime) Stopped() bool { return rt.proc.Now() >= rt.s.deadline }

// Compute charges d of nominal local computation (scaled to the platform),
// after the core's carried releases leave: time passes for the other cores
// while it computes, as while it waits.
func (rt *Runtime) Compute(d time.Duration) {
	rt.sendCarry()
	rt.blockingHook()
	rt.proc.Advance(rt.s.compute(d))
}

// AddOps records n completed application-level operations.
func (rt *Runtime) AddOps(n int) {
	rt.stats.Ops += uint64(n)
	rt.s.snap.AddOps(uint64(n))
}

// abortSignal is panicked out of transactional wrappers to unwind an
// aborted attempt; Runtime.attempt recovers it. It never escapes the
// package. Every panic site sets reason explicitly — the taxonomy
// (trace.Reason) partitions all aborts, and abortCleanup counts it into
// Stats.AbortReasons.
type abortSignal struct {
	kind      cm.Kind
	hasKind   bool // false for elastic-read validation aborts and remote aborts
	reason    trace.Reason
	withdrawn bool // a user abort that is not retried: Stats.UserAborts, not Aborts
}

// signal parks sig in the runtime and returns its address for the panic
// that unwinds the attempt: a pointer becomes the panic's interface value as
// it is, where the struct would be boxed on the heap once per abort.
func (rt *Runtime) signal(sig abortSignal) *abortSignal {
	rt.abortSig = sig
	return &rt.abortSig
}

// Tx is one transaction attempt. All accesses are at object granularity: an
// object is n contiguous words identified by its base address, mirroring the
// paper's txread(obj)/txwrite(obj) wrappers (Algorithms 3-4).
type Tx struct {
	rt   *Runtime
	id   uint64
	kind TxKind

	held      blockSet   // visible reads: the locks the reads hold
	reads     accessSet  // TL2: the objects read, their values in tl2Reads
	writes    accessSet  // the objects written, in first-write order
	writeVals []wordSpan // the buffered value of each write-set entry, by position
	wlocked   []mem.Addr // lock keys of the write locks held: eager writes, reads for update, commit grants

	// forUpdate is the read positions (the order of held's puts) whose read
	// takes the write lock (visibleProto.firstRead): those the body's
	// predictor entry saw written in its last two commits.
	forUpdate uint64

	window [2]winEntry // elastic-read validation window (last two reads)
	nwin   int

	run scanRun // the current run of consecutive TArray.Get reads (readElem)

	// Deferred side effects (atomic.go): onCommit runs after this attempt
	// commits, onAbort after it aborts. Each attempt gets a fresh Tx, so
	// hooks registered by an aborted attempt never leak into the retry.
	onCommit []func()
	onAbort  []func()

	// serialAt is the instant a transaction that wrote nothing serializes
	// at, kept by the protocol: under visible reads the completion of the
	// latest read — the only instant all of its locks are provably held —
	// under TL2 the clock snapshot. commit sets it to the commit's instant,
	// and seq to its place in the system's commit sequence when the core
	// records (KCommit's B and C words, the audit's replay order).
	serialAt port.Time
	seq      uint64

	// TL2 state (tl2.go), untouched under the visible protocol: the clock
	// snapshot, each read-set entry's first-read value and version (by
	// position), the versions piggybacked on write-lock grants, and — between
	// validate and publish — the write stripes carrying this commit's
	// write-back marker, its new version and the instant of the tick that
	// drew it.
	rv        []uint64
	tl2Reads  []tl2Read
	grantVers map[mem.Addr]uint64
	marked    []mem.Addr
	wv        uint64
	tickAt    port.Time
}

type winEntry struct {
	base mem.Addr
	vals []uint64
}

// txSite is one transaction body in the read-for-update predictor: its code
// pointer, and the read-set positions (0 to 63) whose key its last commit
// and the one before wrote. A position in both is read for update.
type txSite struct {
	pc         uintptr
	last, prev uint64
}

// siteFor returns the predictor entry of the body at pc, taking the oldest
// entry's place when the body is not in the table.
func (rt *Runtime) siteFor(pc uintptr) *txSite {
	for i := range rt.sites {
		if rt.sites[i].pc == pc {
			return &rt.sites[i]
		}
	}
	site := &rt.sites[rt.siteNext]
	rt.siteNext = (rt.siteNext + 1) % len(rt.sites)
	*site = txSite{pc: pc}
	return site
}

// learn records which of its first 64 read positions a committed attempt
// wrote, and counts its reads for update that it did not write: the
// predictor's misses.
func (site *txSite) learn(tx *Tx) {
	var wrote uint64
	for p := range tx.held.first {
		if tx.writes.find(tx.held.firstKey(p)) >= 0 {
			wrote |= 1 << p
		}
	}
	for _, b := range tx.held.blocks {
		for m := b.forWrite; m != 0; m &= m - 1 {
			if tx.writes.find(b.base+mem.Addr(bits.TrailingZeros64(m))) < 0 {
				tx.rt.shard.UpdateReadsUnwritten++
			}
		}
	}
	site.prev, site.last = site.last, wrote
}

// reset prepares the runtime's reusable Tx for a fresh attempt: sets and maps
// are cleared in place and slice capacities retained, while slots
// referencing heap objects (hooks, window values) are zeroed so nothing
// registered by a previous attempt stays reachable — the semantics of a
// brand-new Tx, minus the allocations.
func (tx *Tx) reset(id uint64, kind TxKind) {
	tx.id = id
	tx.kind = kind
	tx.held.reset()
	tx.reads.reset()
	tx.writes.reset()
	tx.writeVals = tx.writeVals[:0]
	tx.wlocked = tx.wlocked[:0]
	tx.forUpdate = 0
	tx.window = [2]winEntry{}
	tx.nwin = 0
	tx.run.end(tx.rt)
	clear(tx.onCommit)
	tx.onCommit = tx.onCommit[:0]
	clear(tx.onAbort)
	tx.onAbort = tx.onAbort[:0]
	tx.serialAt = 0
	tx.rv = nil
	tx.tl2Reads = tx.tl2Reads[:0]
	clear(tx.grantVers)
	tx.marked = nil
}

// ID returns the attempt identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// Kind returns the transactional model of this transaction.
func (tx *Tx) Kind() TxKind { return tx.kind }

// ReadSetSize returns the number of objects in the read set: those read
// through the protocol and not given back by EarlyRelease. Under visible
// reads each holds a read lock; TL2 holds none.
func (tx *Tx) ReadSetSize() int { return tx.held.live + len(tx.reads.entries) }

// WriteSetSize returns the number of objects in the write buffer.
func (tx *Tx) WriteSetSize() int { return len(tx.writes.entries) }

// Run executes fn as a Normal transaction, retrying on aborts until it
// commits. It returns the number of attempts the transaction used: 1 when
// the first attempt committed, 1 + the number of aborted attempts
// otherwise. Error-based control flow (user aborts, explicit retry) needs
// Atomic instead; a Tx.Abort inside a Run body panics.
func (rt *Runtime) Run(fn func(*Tx)) int { return rt.RunKind(Normal, fn) }

// RunKind executes fn as a transaction of the given kind, retrying until
// commit, and returns the attempt count exactly like Run. Inside fn,
// transactional reads and writes may abort the attempt by unwinding the
// stack; fn must therefore be side-effect free apart from Tx accesses and
// local computation (§2: no side effects in transactions) — deferred side
// effects go through Tx.OnCommit/Tx.OnAbort.
func (rt *Runtime) RunKind(kind TxKind, fn func(*Tx)) int {
	attempts, err := rt.runLoop(kind, reflect.ValueOf(fn).Pointer(), func(tx *Tx) error {
		fn(tx)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("core: Tx.Abort(%v) inside Run/RunKind; use Atomic for error-based control flow", err))
	}
	return attempts
}

// runLoop is the shared retry loop behind Run, RunKind, and the Atomic
// family. It executes fn as one transaction of the given kind, retrying
// conflict aborts (and ErrRetry) until the transaction commits or fn
// withdraws it with a terminal error. The word-level Run path wraps fn with
// a nil-returning adapter and performs the exact same sequence of virtual-
// time advances and random draws it always has. pc is the code pointer of
// the body the caller was handed, the key of its read-for-update predictor
// entry: only a Normal transaction under visible reads predicts.
func (rt *Runtime) runLoop(kind TxKind, pc uintptr, fn func(*Tx) error) (attempts int, userErr error) {
	rt.local.StartLifespan(rt.proc.Now())
	var lifeStart port.Time
	var site *txSite
	if kind == Normal && rt.s.proto.readsHoldLocks() {
		site = rt.siteFor(pc)
	}
	for {
		attempts++
		rt.drainRequests()
		rt.nextTxID++
		tx := rt.txScratch
		if tx == nil {
			tx = &Tx{rt: rt}
			rt.txScratch = tx
		}
		tx.reset(rt.nextTxID, kind)
		if site != nil {
			tx.forUpdate = site.last & site.prev
		}
		rt.words = rt.words[:0]
		rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxPending)
		if attempts == 1 {
			lifeStart = rt.proc.Now()
		}
		// The begin cost carries a small random jitter (<= 256 ns nominal
		// on a first attempt). Besides being physically plausible, it breaks
		// the deterministic symmetric livelocks that policies without
		// randomization or priorities (NoCM) would otherwise sustain forever
		// in a perfectly deterministic simulator. The bound doubles with
		// each consecutive abort of the lifespan (capped at ~16 µs): a
		// scatter-gather commit sends every batch before observing any
		// enemy, so two overlapping transactions can kill each other in
		// lockstep, and a fixed 256 ns bound is too narrow to break that
		// phase lock within a useful number of retries.
		bound := 257 << uint(min(attempts-1, 6))
		jitter := time.Duration(rt.proc.Rand().Intn(bound)) * time.Nanosecond
		rt.proc.Advance(rt.s.compute(costs.TxBegin + jitter))
		rt.s.proto.begin(tx)
		rt.emit(trace.KAttemptStart, tx.id, uint64(attempts), uint64(kind), 0)
		switch outcome, err := rt.attempt(tx, fn); outcome {
		case attemptCommitted:
			rt.local.OnCommit(rt.proc.Now())
			rt.stats.Commits++
			if kind == ReadOnly {
				rt.shard.ReadOnlyCommits++
			}
			// Lifespan = start of the first attempt to commit, across
			// aborts — the paper's §4.1 definition.
			rt.life.Observe(rt.proc.Now() - lifeStart)
			rt.shard.MaxAttempts = max(rt.shard.MaxAttempts, uint64(attempts))
			rt.emit(trace.KCommit, tx.id, uint64(attempts), uint64(tx.serialAt), tx.seq)
			rt.s.snap.AddCommit()
			if site != nil {
				site.learn(tx)
			}
			tx.runHooks(tx.onCommit)
			return attempts, nil
		case attemptUserAborted:
			return attempts, err
		}
		if backoff := rt.local.OnAbort(); backoff > 0 {
			rt.wait(rt.s.compute(backoff))
		}
		// A loss that named a winner waits for the winner's attempt to end:
		// until then a retry meets the same verdict (awaitWinner). Any other
		// loss retries at once: the begin jitter is its whole wait.
		if w := rt.winner; w.Core >= 0 {
			rt.winner.Core = -1
			rt.sendCarry()
			rt.blockingHook()
			rt.awaitWinner(w, rt.winPolled)
		}
		// Live-backend drain cap, mirroring the sim backend's hard stop at
		// 6x the deadline: a transaction still aborting that far past the
		// window (e.g. the paper's NoCM livelock) would otherwise spin its
		// goroutine forever, because a retry loop never observes Stopped.
		// The check sits at the retry boundary, where every lock the core
		// holds belongs to a finished attempt and is in a carried release,
		// which the worker's exit sends; the worker unwinds and the drain
		// completes.
		if rt.s.liveDrainExpired() {
			panic(liveDrainKill{})
		}
		rt.local.StartAttempt(rt.proc.Now())
	}
}

// wait pauses the core, between two attempts or for the workload (appPort),
// after its carried releases leave: a release never waits with the core.
func (rt *Runtime) wait(d time.Duration) {
	rt.sendCarry()
	rt.blockingHook()
	rt.proc.Pause(d)
}

// blocking, when set by a test, is called each time a core is about to block
// on a lock response, pause, compute, wait at a barrier or exit.
var blocking func(rt *Runtime)

func (rt *Runtime) blockingHook() {
	if blocking != nil {
		blocking(rt)
	}
}

// winnerPollPause is the pause between two reads of a winner's status
// register (awaitWinner). Swept from 0.5 to 32 us on sim-bank-scc48, wire
// msgs/op stayed within 465.6-477.4, with no trend.
const winnerPollPause = 2 * time.Microsecond

// awaitWinner holds the next attempt until w, the attempt that beat this
// one, has ended: its core's status register shows another attempt, Aborted
// or Committed. Until then a retry would meet w's lock again — and lose it
// again under a policy whose priorities are fixed for a lifespan (Property
// 1, rule (a)), to a commit that cannot be aborted, or to an irrevocable
// transaction. A poll is one remote register read — a compare-and-swap from
// Free to Free, which cannot change the register — and sends no message;
// between polls the core serves its co-located DTM node. It cannot
// deadlock: a waiter holds no locks, and the attempt it waits on is in
// flight, so not waiting itself. polled: the loser already read the
// register once, before it aborted (winnerEnded), which counts as the first
// poll.
func (rt *Runtime) awaitWinner(w cm.Meta, polled bool) {
	start := rt.proc.Now()
	for !rt.s.liveDrainExpired() {
		if !polled {
			rt.shard.WinnerPolls++
			if rt.s.ended(rt.proc, rt.core, w) {
				break
			}
		}
		polled = false
		rt.drainRequests()
		rt.proc.Pause(rt.s.compute(winnerPollPause))
	}
	rt.shard.WinnerWaits++
	rt.shard.WinnerWaitTime += rt.proc.Now() - start
}

// ended reports, for core by, whether attempt e has ended: its core's status
// register, read with a compare-and-swap that cannot change it, shows a
// later attempt, or this one Committed or Aborted. One remote register read,
// no message.
func (s *System) ended(p port.Port, by int, e cm.Meta) bool {
	_, id, st := s.Regs.CASStatusRemoteObserve(p, by, e.Core, 0, mem.TxFree, mem.TxFree)
	return id != e.TxID || st == mem.TxCommitted || st == mem.TxAborted
}

// liveDrainKill unwinds a worker whose transaction cannot finish within the
// live backend's drain window; the SpawnWorkers wrapper recovers it. It
// never escapes the package.
type liveDrainKill struct{}

// attemptOutcome classifies one transaction attempt.
type attemptOutcome uint8

const (
	attemptCommitted   attemptOutcome = iota // committed; hooks pending
	attemptAborted                           // conflict abort or ErrRetry: go around the loop
	attemptUserAborted                       // withdrawn by the user: return the error, no retry
)

func (rt *Runtime) attempt(tx *Tx, fn func(*Tx) error) (outcome attemptOutcome, userErr error) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case *abortSignal:
				rt.abortCleanup(tx, *sig)
				outcome, userErr = attemptAborted, nil
			case userAbortSignal:
				outcome, userErr = rt.finishUserAbort(tx, sig.err)
			default:
				panic(r)
			}
		}
	}()
	if err := fn(tx); err != nil {
		return rt.finishUserAbort(tx, err)
	}
	tx.commit()
	return attemptCommitted, nil
}

// checkAborted aborts the attempt if a contention manager remotely switched
// this transaction's status register to aborted. A core checks its own
// register locally, which is free.
func (tx *Tx) checkAborted() {
	if _, st := tx.rt.s.Regs.LoadStatusLocal(tx.rt.core); st == mem.TxAborted {
		panic(tx.rt.signal(abortSignal{reason: trace.ReasonRevoked}))
	}
}

// protocol is the read/commit strategy — how a transaction observes memory
// and what a commit must prove before it persists — chosen once in NewSystem
// (Config.Protocol) and shared by every runtime. Everything else is common:
// the Tx read/write set, the retry loop, write-lock acquisition and
// Tx.commit, which states the step order. Transaction kinds are
// per-transaction variations inside the visible strategy.
type protocol interface {
	// begin starts an attempt, after its begin cost.
	begin(tx *Tx)
	// firstRead returns the n-word object at base, which is in neither the
	// write buffer nor the read set, or aborts the attempt.
	firstRead(tx *Tx, base mem.Addr, n int) []uint64
	// validate runs once the commit holds all its write locks and is
	// Committing. ok false names the object or stripe whose change dooms
	// the commit, which rolls back.
	validate(tx *Tx) (at mem.Addr, ok bool)
	// publish follows the persist and returns the instant the update
	// serializes at.
	publish(tx *Tx) port.Time
	// readsHoldLocks reports whether the read set is covered by read locks
	// held at DTM nodes (visible reads) or by nothing outside the core.
	readsHoldLocks() bool
}

// Read returns the single word object at addr.
func (tx *Tx) Read(addr mem.Addr) uint64 { return tx.readNView(addr, 1)[0] }

// ReadN returns the n-word object at base: from the write buffer or the read
// set when the transaction has touched it, through the protocol otherwise
// (protocol.firstRead). The returned slice is a copy the caller owns.
func (tx *Tx) ReadN(base mem.Addr, n int) []uint64 {
	return cloneWords(tx.readNView(base, n))
}

// readNView is ReadN minus the defensive copy: the returned slice aliases
// runtime-owned storage (the write buffer, TL2's first-read values, the
// validation window or rt.readBuf) and is valid only until the next
// operation on the transaction. The typed accessors decode from it
// immediately, which keeps the codec hot path allocation-free; everything
// user-facing goes through ReadN.
func (tx *Tx) readNView(base mem.Addr, n int) []uint64 {
	if vals, ok := tx.cached(base, n); ok {
		return vals
	}
	return tx.rt.s.proto.firstRead(tx, base, n)
}

// cached charges a read wrapper's cost and returns the n-word object at base
// if the transaction has touched it: from the write buffer, from TL2's
// first-read values, or, for a visible read, from shared memory again. The
// object's lock pins those words: only a revocation lets a writer in, and it
// sets this attempt's status to Aborted first (mem.go's "Remote abort -> the
// victim's checkAborted"), so the check after the read catches any words a
// writer left.
func (tx *Tx) cached(base mem.Addr, n int) ([]uint64, bool) {
	rt := tx.rt
	rt.proc.Advance(rt.s.compute(costs.Wrapper))
	if j := tx.writes.find(base); j >= 0 {
		return tx.writeVals[j].of(rt.words), true
	}
	if !rt.s.proto.readsHoldLocks() {
		if j := tx.reads.find(base); j >= 0 {
			return tx.tl2Reads[j].of(rt.words), true
		}
		return nil, false
	}
	if !tx.held.holds(base) {
		return nil, false
	}
	vals := scratchWords(&rt.readBuf, n)
	rt.s.Mem.ReadBatchRaw(base, vals)
	tx.checkAborted()
	return vals, true
}

// doomed aborts the attempt over a read that cannot be part of a consistent
// view: the object or stripe at changed under it.
func (tx *Tx) doomed(at mem.Addr) {
	tx.rt.emit(trace.KDoomedRead, tx.id, uint64(at), 0, 0)
	panic(tx.rt.signal(abortSignal{reason: trace.ReasonDoomedRead}))
}

// Write buffers a single-word write.
func (tx *Tx) Write(addr mem.Addr, v uint64) { tx.WriteN(addr, []uint64{v}) }

// WriteN buffers a write of the n-word object at base (deferred writes,
// §3.3). Under Eager acquisition the write lock is requested immediately;
// under Lazy it is deferred to commit. Writes are forbidden inside a
// declared ReadOnly transaction and panic.
func (tx *Tx) WriteN(base mem.Addr, vals []uint64) {
	if tx.kind == ReadOnly {
		panic(fmt.Sprintf("core: write to %#x inside a read-only transaction", uint64(base)))
	}
	rt := tx.rt
	rt.proc.Advance(rt.s.compute(costs.Wrapper))
	if rt.s.cfg.Acquire == Eager && !slices.Contains(tx.wlocked, base) {
		tx.checkAborted()
		rt.lockKeys = append(rt.lockKeys[:0], base)
		rt.rpcLock(tx, rt.s.dir.Snapshot(), rt.lockKeys, lockWrite)
		tx.wlocked = append(tx.wlocked, base)
	}
	span, buf := rt.wordBuf(len(vals))
	copy(buf, vals)
	if j := tx.writes.put(base); j < len(tx.writeVals) {
		tx.writeVals[j] = span
	} else {
		tx.writeVals = append(tx.writeVals, span)
	}
}

// commit is the one commit (Algorithm 3, txcommit), and the order of its
// steps is the protocol's safety argument: the attempt is still alive →
// every write lock is held → Pending becomes Committing, after which no
// contention manager can abort it or revoke a lock → the protocol validates
// what the transaction read → the write set persists → the protocol
// publishes it → Committed → release burst → latency. A transaction that
// wrote nothing skips from the first step to Committed: the protocol vouched
// for each of its reads as it happened, and it serializes at tx.serialAt.
func (tx *Tx) commit() {
	rt, p := tx.rt, tx.rt.s.proto
	tx.checkAborted()
	start := rt.proc.Now()
	update := len(tx.writes.entries) > 0
	// The bookkeeping cost is a write-set scan. A declared read-only
	// transaction has none to scan; nor does an invisible reader that wrote
	// nothing, declared or not — nothing at its commit depends on the kind.
	if update || (tx.kind != ReadOnly && p.readsHoldLocks()) {
		rt.proc.Advance(rt.s.compute(costs.Commit))
	}
	instant := tx.serialAt
	if update {
		if rt.s.cfg.Acquire == Lazy {
			tx.acquireCommitLocks()
		}
		// Become non-abortable. If the CAS fails, a CM got to us first.
		if !rt.s.Regs.CASStatusLocal(rt.core, tx.id, mem.TxPending, mem.TxCommitting) {
			panic(rt.signal(abortSignal{reason: trace.ReasonRevoked}))
		}
		if at, ok := p.validate(tx); !ok {
			tx.rollback(at)
		}
		rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
		if rt.rec != nil {
			for j, e := range tx.writes.entries {
				vals := tx.writeVals[j].of(rt.words)
				rt.emit(trace.KWrite, tx.id, uint64(e), trace.ValueWord(vals), uint64(len(vals)))
			}
		}
		addrs, vals := tx.writeBackLists()
		rt.s.Mem.WriteBatch(rt.proc, rt.core, addrs, vals)
		instant = p.publish(tx)
		rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
	}
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxCommitted)
	tx.serialAt = instant
	if rt.rec != nil {
		tx.seq = rt.s.commits.Add(1)
	}
	// An attempt that held no lock leaves the carry as it is: an earlier
	// attempt's releases ride the core's next lock request, or leave at its
	// next abort or wait.
	if len(tx.wlocked) > 0 || p.readsHoldLocks() {
		rt.releaseAll(tx)
	}
	rt.commitLat.Observe(rt.proc.Now() - start)
}

// rollback is the one way out of a commit whose validation failed after it
// became Committing: the write-back markers validate set come off (none
// under visible reads), the status goes back to abortable, and the attempt
// unwinds as a doomed read; abortCleanup releases the write locks.
func (tx *Tx) rollback(at mem.Addr) {
	rt := tx.rt
	rt.s.Mem.UnlockVersions(tx.marked)
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxAborted)
	tx.doomed(at)
}

// writeBackLists flattens the write set into parallel address/value lists
// for the persist WriteBatch, reusing the runtime's scratch (one attempt is
// live per runtime, and WriteBatch consumes the lists before returning).
func (tx *Tx) writeBackLists() ([]mem.Addr, []uint64) {
	rt := tx.rt
	addrs := rt.wbAddrs[:0]
	vals := rt.wbVals[:0]
	for j, e := range tx.writes.entries {
		for i, v := range tx.writeVals[j].of(rt.words) {
			addrs = append(addrs, e+mem.Addr(i))
			vals = append(vals, v)
		}
	}
	rt.wbAddrs, rt.wbVals = addrs, vals
	return addrs, vals
}

// acquireCommitLocks performs the lazy commit's write-lock acquisition: the
// write set is partitioned into one batch per responsible DTM node (§3.3)
// and acquired scatter-gather — every batch sent at once, all responses
// awaited in a single round-trip phase.
//
// Scatter-gather needs a two-phase rollback: when any node rejects its
// batch, the batches that other nodes already granted are recorded in
// tx.wlocked before the abort unwinds, so abortCleanup's releaseAll revokes
// them and no stale write lock survives the attempt.
//
// A batch NACKed for stale placement (an adaptive migration moved or froze
// a stripe between resolution and arrival) aborts nothing: its keys are
// re-resolved against the directory, re-partitioned — migration may split
// them across different nodes — and retried in a fresh phase, keeping
// every lock already granted. The hop bound caps the chase; exceeding it
// aborts the attempt, whose lock release is what lets a frozen stripe
// drain when the requester itself is the holdout.
func (tx *Tx) acquireCommitLocks() {
	rt := tx.rt
	keys := tx.writeKeys()
	rt.s.dir.Record(rt.cluster, keys...) // once per attempt; stale retries resend, not re-record
	keys = tx.notReadForUpdate(keys)
	for hop := 0; ; hop++ {
		stale := tx.scatterAcquire(keys)
		if len(stale) == 0 {
			return
		}
		if hop >= maxPlacementHops {
			rt.placementAbort()
		}
		keys = stale
	}
}

// scatterAcquire sends every batch in one burst and gathers all responses
// in a single awaited phase, returning the keys NACKed for stale placement.
// A batch whose NACK names an attempt that has already ended is sent again,
// in a further phase (winnerEnded). Any other conflict rejection aborts
// after the granted batches are recorded for rollback.
func (tx *Tx) scatterAcquire(keys []mem.Addr) (stale []mem.Addr) {
	rt := tx.rt
	batches, epoch := tx.commitBatches(keys)
	for len(batches) > 0 {
		tx.checkAborted()
		rt.shard.CommitRoundTrips++
		resps := rt.scatterWriteLocks(tx, epoch, batches)
		var failed *respLock
		polled, resend := false, 0
		for i, resp := range resps {
			resps[i] = nil
			b := &batches[i]
			switch {
			case resp.OK:
				tx.wlocked = append(tx.wlocked, b.writes...)
				tx.recordGrantVers(b.writes, resp.Vers)
			case resp.Stale:
				stale = append(stale, b.writes...)
			case failed == nil:
				var ended bool
				if ended, polled = rt.winnerEnded(resp, &b.past); !ended {
					failed = resp // first rejection in send order, for determinism
					continue
				}
				// Swapped, not copied: every group keeps its own key storage.
				batches[resend], batches[i] = batches[i], batches[resend]
				resend++
			}
			putRespLock(resp)
		}
		if failed != nil {
			rt.conflictAbort(failed, polled)
		}
		batches = batches[:resend]
	}
	return stale
}

// commitBatches partitions lock keys into the batches the commit acquires —
// one per responsible DTM node, in first-write order — under one placement
// snapshot, and returns that snapshot's epoch. Requests built from these
// batches go to the batch's node and carry that epoch, so a directory
// change between grouping and send is always visible to the receiver.
func (tx *Tx) commitBatches(keys []mem.Addr) ([]nodeGroup, uint64) {
	rt := tx.rt
	place := rt.s.dir.Snapshot()
	// Group the keys by DTM node. Groups appear in order of first use and
	// keep their keys' relative order, so identical runs build identical
	// messages.
	rt.groups = rt.groups[:0]
	for _, k := range keys {
		ni := place.Owner(k)
		gi := int(rt.groupIdx[ni]) - 1
		if gi < 0 {
			gi = len(rt.groups)
			rt.groupIdx[ni] = int32(gi + 1)
			rt.groups = slices.Grow(rt.groups, 1)[:gi+1] // a reused slot keeps its key storage
			rt.groups[gi].node, rt.groups[gi].writes = ni, rt.groups[gi].writes[:0]
			rt.groups[gi].past = attemptRef{Core: -1}
		}
		rt.groups[gi].writes = append(rt.groups[gi].writes, k)
	}
	for _, g := range rt.groups {
		rt.groupIdx[g.node] = 0 // relSlot and draft share the index
	}
	return rt.groups, place.Epoch()
}

// abortCleanup releases every lock held by the failed attempt and marks the
// status register.
func (rt *Runtime) abortCleanup(tx *Tx, sig abortSignal) {
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxAborted)
	rt.releaseAll(tx)
	if sig.withdrawn {
		rt.shard.UserAborts++
	} else {
		rt.stats.Aborts++
	}
	rt.shard.AbortReasons[sig.reason]++
	if sig.hasKind {
		rt.shard.AbortsByKind[sig.kind]++
	}
	kindEnc := uint64(0)
	if sig.hasKind {
		kindEnc = uint64(sig.kind) + 1
	}
	rt.emit(trace.KAbort, tx.id, uint64(sig.reason), kindEnc, trace.WinnerWord(rt.winner.Core, rt.winner.TxID))
	rt.s.snap.AddAbort()
	tx.runHooks(tx.onAbort)
}

// releaseAll ends an attempt's hold on the DTM nodes. The attempt's locks
// are copied into a lock set from the free list, with the attempt's ID and
// the placement snapshot that resolves its keys: the read locks as block
// masks (a read for update's key among the write locks only), then the
// write locks. The same walk finds the nodes the set holds locks at, in
// first-use order, and counts each node's read and write keys; each node's
// release becomes a carry entry (see Runtime.carry), drafted only when it
// leaves (draft), since a finished attempt's lock never wins a conflict
// (dtmNode.revokeFinished). An older release still carried for one of these
// nodes leaves on its own first, so the carry holds one release per node;
// only a placement migration since the older attempt's request to that node
// can leave one behind.
func (rt *Runtime) releaseAll(tx *Tx) {
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseRelease), 0, 0)
	tx.run.end(rt)
	ls := rt.lockSets.get(len(tx.held.blocks))
	ls.txID, ls.place = tx.id, rt.s.dir.Snapshot()
	for _, b := range tx.held.blocks {
		if m := b.held &^ b.forWrite; m != 0 {
			ls.reads = append(ls.reads, lockBlock{b.base, m})
			for ; m != 0; m &= m - 1 {
				rt.relSlot(ls.place.Owner(b.base+mem.Addr(bits.TrailingZeros64(m)))).reads++
			}
		}
	}
	ls.wlocked = append(ls.wlocked, tx.wlocked...)
	for _, k := range ls.wlocked {
		rt.relSlot(ls.place.Owner(k)).writes++
	}
	rt.endDrafts()
	if ls.refs = len(rt.rels); ls.refs == 0 {
		rt.lockSets.put(ls)
	}
	for i, d := range rt.rels {
		rt.rels[i].set = ls
		if j := rt.carried(d.node); j >= 0 {
			rt.sendReleases(rt.draft(rt.carry[j:j+1]), &rt.shard.ReleaseMsgs)
			rt.carry = slices.Delete(rt.carry, j, j+1)
		}
	}
	rt.carry = append(rt.carry, rt.rels...)
	clear(rt.rels)
	rt.rels = rt.rels[:0]
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseRelease), 0, 0)
}

// relDraft is one DTM node's release. A carried one is the node's share of
// a finished attempt's lock set (set, and the node's read and write keys
// in it) until draft fills msg, a pooled message, as it leaves; an early
// release (Tx.EarlyRelease) fills msg as it is built, from no set.
type relDraft struct {
	node          int
	set           *lockSet
	msg           *relLocks
	reads, writes int32
}

// relSlot returns DTM node ni's entry in rt.rels, adding it on the node's
// first key. Entries appear in order of first use.
func (rt *Runtime) relSlot(ni int) *relDraft {
	ri := rt.groupIdx[ni] - 1
	if ri < 0 {
		ri = int32(len(rt.rels))
		rt.groupIdx[ni] = ri + 1
		rt.rels = append(rt.rels, relDraft{node: ni})
	}
	return &rt.rels[ri]
}

// endDrafts ends the drafting of rt.rels: their indices in rt.groupIdx are
// cleared for the next user.
func (rt *Runtime) endDrafts() {
	for _, d := range rt.rels {
		rt.groupIdx[d.node] = 0
	}
}

// draft draws and fills the messages of ds, releases of one lock set for
// distinct nodes, in one walk of the set: read locks first, blocks in
// first-touch order and keys ascending within a block, then write locks in
// acquisition order (a read for update's key among the write locks only),
// each key to its node under the set's snapshot, so identical runs build
// identical messages. The key slices are sized from releaseAll's counts
// before the walk fills them — a message drawn fresh from the pool, as after
// every GC, would otherwise grow them one append at a time — and the walk
// stops once they are full. Each entry then drops its reference to the set.
// It returns ds.
func (rt *Runtime) draft(ds []relDraft) []relDraft {
	ls := ds[0].set
	var reads, writes int32
	for i := range ds {
		d := &ds[i]
		d.msg = getRelLocks()
		d.msg.Core, d.msg.TxID = rt.core, ls.txID
		room := int(d.reads)
		if room >= scanShare && cap(d.msg.ReadAddrs) < room {
			room = max(room, scanShareRoom)
		}
		d.msg.ReadAddrs = slices.Grow(d.msg.ReadAddrs, room)
		d.msg.WriteAddrs = slices.Grow(d.msg.WriteAddrs, int(d.writes))
		reads, writes = reads+d.reads, writes+d.writes
		rt.groupIdx[d.node] = int32(i + 1)
	}
walk:
	for _, b := range ls.reads {
		for m := b.keys; m != 0; m &= m - 1 {
			if reads == 0 {
				break walk
			}
			k := b.base + mem.Addr(bits.TrailingZeros64(m))
			if i := rt.groupIdx[ls.place.Owner(k)]; i > 0 {
				ds[i-1].msg.ReadAddrs = append(ds[i-1].msg.ReadAddrs, k)
				reads--
			}
		}
	}
	for _, k := range ls.wlocked {
		if writes == 0 {
			break
		}
		if i := rt.groupIdx[ls.place.Owner(k)]; i > 0 {
			ds[i-1].msg.WriteAddrs = append(ds[i-1].msg.WriteAddrs, k)
			writes--
		}
	}
	for i := range ds {
		rt.groupIdx[ds[i].node] = 0
		ds[i].set = nil
		rt.lockSets.unref(ls)
	}
	return ds
}

// A drafted release of scanShare read keys or more that needs a larger
// slice than its pooled message has gets room for scanShareRoom keys at
// once: the pool hands messages out in no order of size, and a scan's
// shares of the nodes vary by a few keys, so a slice sized to one share
// would grow again at the next.
const (
	scanShare     = 16
	scanShareRoom = 64
)

// draftAll drafts every entry of ds, one walk per run of entries that share
// a lock set, and returns ds.
func (rt *Runtime) draftAll(ds []relDraft) []relDraft {
	for i, j := 0, 0; i < len(ds); i = j {
		for j = i + 1; j < len(ds) && ds[j].set == ds[i].set; j++ {
		}
		rt.draft(ds[i:j])
	}
	return ds
}

// releaseSent, when set by a test, sees every release message just before
// it leaves, on its own or carried by a lock request.
var releaseSent func(node int, msg *relLocks)

// sendReleases sends the drafted release messages of drafts in one
// fire-and-forget burst (scatter with nothing to gather), counting each in
// sent, and returns drafts emptied for reuse.
func (rt *Runtime) sendReleases(drafts []relDraft, sent *uint64) []relDraft {
	for i, d := range drafts {
		drafts[i] = relDraft{}
		if releaseSent != nil {
			releaseSent(d.node, d.msg)
		}
		*sent++
		rt.sendToNode(d.node, d.msg)
	}
	return drafts[:0]
}

// sendCarry sends the carried releases on their own, in one burst.
func (rt *Runtime) sendCarry() {
	rt.carry = rt.sendReleases(rt.draftAll(rt.carry), &rt.shard.ReleaseMsgs)
}

// carried returns the index in rt.carry of DTM node ni's carried release,
// or -1.
func (rt *Runtime) carried(ni int) int {
	for i, d := range rt.carry {
		if d.node == ni {
			return i
		}
	}
	return -1
}

// carryOn drafts DTM node ni's carried release, if there is one, into req,
// which the core is about to send to ni. On net the entry rides on until
// the request is answered, keeping its lock set.
func (rt *Runtime) carryOn(ni int, req *reqLock) {
	i := rt.carried(ni)
	if i < 0 {
		return
	}
	if rt.deadlineRecv != nil {
		d := rt.carry[i]
		d.set.refs++
		rt.riding = append(rt.riding, d)
	}
	req.Rel = rt.draft(rt.carry[i : i+1])[0].msg
	rt.carry = slices.Delete(rt.carry, i, i+1)
	rt.shard.CarriedReleases++
	if releaseSent != nil {
		releaseSent(ni, req.Rel)
	}
}

// dropRiding forgets the carried releases once their requests are
// answered: the node that answered served them.
func (rt *Runtime) dropRiding() {
	for _, d := range rt.riding {
		rt.lockSets.unref(d.set)
	}
	clear(rt.riding)
	rt.riding = rt.riding[:0]
}

// writeKeys returns the lock keys of the write set, in first-write order:
// the write set's bases, distinct by construction.
func (tx *Tx) writeKeys() []mem.Addr {
	tx.rt.wkKeys = append(tx.rt.wkKeys[:0], tx.writes.entries...)
	return tx.rt.wkKeys
}

// notReadForUpdate drops, in place, the keys whose write lock a read for
// update already holds: the commit sends no request for them.
func (tx *Tx) notReadForUpdate(keys []mem.Addr) []mem.Addr {
	if len(tx.wlocked) == 0 {
		return keys
	}
	out := keys[:0]
	for _, k := range keys {
		if !tx.held.forWrite(k) {
			out = append(out, k)
		}
	}
	return out
}

// nodeGroup is the write-lock keys one DTM node is responsible for, out of
// those commitBatches groups, and the ended attempt the batch was last sent
// again past (reqLock.Ended; Core < 0: none). The slice is runtime-owned
// scratch, copied into a pooled message before send.
type nodeGroup struct {
	node   int
	writes []mem.Addr
	past   attemptRef
}

// drainRequests serves any queued DTM requests at a transaction boundary
// (Multitask cooperative yield).
func (rt *Runtime) drainRequests() {
	if rt.node == nil {
		return
	}
	for m, ok := rt.proc.TryRecv(); ok; m, ok = rt.proc.TryRecv() {
		rt.absorb(m, "at tx boundary")
	}
}

// Barrier blocks until every application core has reached the same barrier
// (§8 privatization support): each core sends a barrier message to all other
// application cores and waits for all of theirs.
func (rt *Runtime) Barrier() {
	rt.sendCarry()
	rt.barrierEpoch++
	epoch := rt.barrierEpoch
	msg := barrierMsg{Epoch: epoch}
	for _, other := range rt.s.runtimes {
		if other == rt {
			continue
		}
		rt.s.send(&rt.shard, rt.rec, rt.proc, rt.core, other.proc, other.core, msg, msg.bytes())
	}
	rt.blockingHook()
	for rt.barrierSeen[epoch] < len(rt.s.runtimes)-1 {
		rt.absorb(rt.proc.Recv(), "in barrier")
	}
	delete(rt.barrierSeen, epoch)
}

func cloneWords(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	copy(out, v)
	return out
}
