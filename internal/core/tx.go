package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cm"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/sim"
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
	local   *cm.Local
	node    *dtmNode // co-located DTM node (Multitask only)

	nextTxID   uint64
	abortSig   abortSignal // the attempt's pending abort, see signal
	waitRng    sim.Rand    // retryWait's draws; proc.Rand's are the workload's
	stats      CoreStats
	shard      Stats          // this core's counters, merged at snapshot
	life       hist.Histogram // committed-transaction lifespans
	commitLat  hist.Histogram // commit-phase latencies
	scatterLat hist.Histogram // commit write-lock scatter-burst latencies
	gatherLat  hist.Histogram // commit response-gather latencies
	revalLat   hist.Histogram // TL2 read-set revalidation latencies

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

	// out is the core's outbox: burst sends — commit scatter, release
	// bursts — are staged into it (System.stage) and flush at the end of
	// the burst, so on the coalescing plane payloads sharing a destination
	// DTM node share one wire message. Always empty on the uncoalesced
	// plane.
	out port.Outbox

	// rvBuf is the reusable TL2 clock-snapshot buffer (tl2.go); only one
	// attempt is ever live per runtime, so attempts may share it.
	rvBuf []uint64

	// Hot-path scratch, all single-consumer state of this runtime's port:
	// one attempt is ever live per runtime, so the commit and read paths
	// reuse these across attempts and allocate nothing in steady state.
	// tx is the reusable attempt (reset per attempt); words is the arena
	// backing every tx-internal word copy (read/write-set values), reset at
	// attempt start — values handed to user code or the auditor are always
	// fresh clones (cloneWords), never arena slices, so callers may retain
	// them across attempts.
	txScratch    *Tx
	words        []uint64
	eagerKey     [1]mem.Addr       // single-key batch for eager write locks
	scatterIDs   []uint64          // scatter-gather correlation IDs
	scatterResps []*respLock       // scatter-gather response slots
	relGroups    []relGroup        // releaseAll per-node grouping
	relIdx       map[int]int       // releaseAll node → relGroups index
	ngGroups     []nodeGroup       // groupByNode result slots
	ngIdx        map[int]int       // groupByNode node → ngGroups index
	wkSeen       map[mem.Addr]bool // writeKeys dedup set
	wkKeys       []mem.Addr        // writeKeys result
	batchScratch []nodeGroup       // commitBatches result slots
	wbAddrs      []mem.Addr        // commit write-back address list
	wbVals       []uint64          // commit write-back value list
	erKeys       []mem.Addr        // EarlyRelease key list
	winBuf       []uint64          // validateWindow re-read buffer
	rvInWrite    map[mem.Addr]bool // revalidateTL2 write-stripe set
	rvSeen       map[mem.Addr]bool // revalidateTL2 visited-stripe set

	barrierEpoch uint64
	barrierSeen  map[uint64]int
}

// wordBuf carves an n-word slice out of the runtime's word arena. The arena
// is reset at every attempt start, so the slices only back attempt-internal
// state (tx.reads/tx.writes values, window entries); anything with a longer
// lifetime must be cloned (cloneWords). When the arena is full a larger one
// replaces it — outstanding slices keep the old array alive until the
// attempt ends, so they stay valid.
func (rt *Runtime) wordBuf(n int) []uint64 {
	if len(rt.words)+n > cap(rt.words) {
		grow := 2 * cap(rt.words)
		if grow < n {
			grow = n
		}
		if grow < 64 {
			grow = 64
		}
		rt.words = make([]uint64, 0, grow)
	}
	l := len(rt.words)
	rt.words = rt.words[:l+n]
	return rt.words[l : l+n : l+n]
}

func (rt *Runtime) initLocal() {
	rt.local = cm.NewLocal(rt.s.cfg.Policy, rt.core, rt.proc.Rand())
	rt.waitRng = sim.NewRand(rt.s.cfg.Seed ^ (0xd1b54a32d192ed03 * uint64(rt.core+1)))
	rt.barrierSeen = make(map[uint64]int)
	rt.initRPC()
}

// Core returns the physical core ID.
func (rt *Runtime) Core() int { return rt.core }

// AppIndex returns the index of this core within the application partition.
func (rt *Runtime) AppIndex() int { return rt.appIdx }

// Port returns the core's execution port (clock, RNG, mailbox).
func (rt *Runtime) Port() Port { return rt.proc }

// Rand returns the core's deterministic random source.
func (rt *Runtime) Rand() *sim.Rand { return rt.proc.Rand() }

// Mem returns the shared memory (for direct, weakly-atomic accesses; see
// §2 — transactional data must not be accessed non-transactionally while
// transactions may touch it).
func (rt *Runtime) Mem() *mem.Memory { return rt.s.Mem }

// Stopped reports whether the system's virtual deadline has passed; worker
// loops use it as their exit condition.
func (rt *Runtime) Stopped() bool { return rt.proc.Now() >= rt.s.deadline }

// Compute charges d of nominal local computation (scaled to the platform).
func (rt *Runtime) Compute(d time.Duration) { rt.proc.Advance(rt.s.compute(d)) }

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
	kind    cm.Kind
	hasKind bool // false for elastic-read validation aborts and remote aborts
	reason  trace.Reason
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

	reads     map[mem.Addr][]uint64
	readOrder []mem.Addr
	writes    map[mem.Addr][]uint64
	writeOrd  []mem.Addr
	wlocked   []mem.Addr // lock keys of write locks already held (eager mode)

	window [2]winEntry // elastic-read validation window (last two reads)
	nwin   int

	// Deferred side effects (atomic.go): onCommit runs after this attempt
	// commits, onAbort after it aborts. Each attempt gets a fresh Tx, so
	// hooks registered by an aborted attempt never leak into the retry.
	onCommit []func()
	onAbort  []func()

	// lastGrant is the completion time of the latest successful read,
	// used by the auditor: a read-only transaction serializes at its last
	// read, the only instant all of its locks are provably held.
	lastGrant sim.Time

	// TL2 state (tl2.go), untouched under the visible protocol: the clock
	// snapshot and its instant, the version each read stripe was first
	// observed at, and the versions piggybacked on write-lock grants.
	rv        []uint64
	snapAt    sim.Time
	readVers  map[mem.Addr]uint64
	grantVers map[mem.Addr]uint64
}

type winEntry struct {
	base mem.Addr
	vals []uint64
}

// reset prepares the runtime's reusable Tx for a fresh attempt: maps are
// cleared in place and slice capacities retained, while slots referencing
// heap objects (hooks, window values) are zeroed so nothing registered by a
// previous attempt stays reachable — the semantics of a brand-new Tx, minus
// the allocations.
func (tx *Tx) reset(id uint64, kind TxKind) {
	tx.id = id
	tx.kind = kind
	clear(tx.reads)
	tx.readOrder = tx.readOrder[:0]
	clear(tx.writes)
	tx.writeOrd = tx.writeOrd[:0]
	tx.wlocked = tx.wlocked[:0]
	tx.window[0] = winEntry{}
	tx.window[1] = winEntry{}
	tx.nwin = 0
	for i := range tx.onCommit {
		tx.onCommit[i] = nil
	}
	tx.onCommit = tx.onCommit[:0]
	for i := range tx.onAbort {
		tx.onAbort[i] = nil
	}
	tx.onAbort = tx.onAbort[:0]
	tx.lastGrant = 0
	tx.rv = nil
	tx.snapAt = 0
	clear(tx.readVers)
	clear(tx.grantVers)
}

// ID returns the attempt identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// Kind returns the transactional model of this transaction.
func (tx *Tx) Kind() TxKind { return tx.kind }

// ReadSetSize returns the number of objects currently read-locked.
func (tx *Tx) ReadSetSize() int { return len(tx.reads) }

// WriteSetSize returns the number of objects in the write buffer.
func (tx *Tx) WriteSetSize() int { return len(tx.writes) }

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
	attempts, err := rt.runLoop(kind, func(tx *Tx) error {
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
// time advances and random draws it always has.
func (rt *Runtime) runLoop(kind TxKind, fn func(*Tx) error) (attempts int, userErr error) {
	rt.local.StartLifespan(rt.proc.Now())
	var lifeStart sim.Time
	for {
		attempts++
		rt.drainRequests()
		rt.nextTxID++
		tx := rt.txScratch
		if tx == nil {
			tx = &Tx{
				rt:     rt,
				reads:  make(map[mem.Addr][]uint64),
				writes: make(map[mem.Addr][]uint64),
			}
			if rt.s.tl2() {
				tx.readVers = make(map[mem.Addr]uint64)
			}
			rt.txScratch = tx
		}
		tx.reset(rt.nextTxID, kind)
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
		rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.TxBegin + jitter))
		if rt.s.tl2() {
			// Each attempt gets a fresh clock snapshot: retrying with the
			// aborted attempt's snapshot would doom every read of a stripe
			// committed since.
			rt.snapshotTL2(tx)
		}
		rt.emit(trace.KAttemptStart, tx.id, uint64(attempts), 0, 0)
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
			rt.emit(trace.KCommit, tx.id, uint64(attempts), 0, 0)
			rt.s.snap.AddCommit()
			tx.runHooks(tx.onCommit)
			return attempts, nil
		case attemptUserAborted:
			return attempts, err
		}
		if backoff := rt.local.OnAbort(); backoff > 0 {
			rt.proc.Pause(rt.s.compute(backoff))
		}
		// Live-backend drain cap, mirroring the sim backend's hard stop at
		// 6x the deadline: a transaction still aborting that far past the
		// window (e.g. the paper's NoCM livelock) would otherwise spin its
		// goroutine forever, because a retry loop never observes Stopped.
		// The check sits at the retry boundary, where the attempt has
		// already released every lock, so killing it leaves no state
		// behind; the worker unwinds and the drain completes.
		if rt.s.liveDrainExpired() {
			panic(liveDrainKill{})
		}
		// FairCM lets the loser retry at once, which is right where a core
		// runs one thread and a lock holder is never descheduled. Here the
		// host deschedules holders for milliseconds, and until the holder is
		// back nothing the loser sends can succeed: so in real time the
		// loser waits (retryWait). The simulator's wait is the begin jitter
		// it has always had.
		if rt.s.host != nil {
			rt.proc.Pause(rt.retryWait(lifeStart))
		}
		rt.local.StartAttempt(rt.proc.Now())
	}
}

// retryWaitCap bounds one retry wait. Measured at 64 us, 256 us, 1 ms, 4 ms
// and uncapped (CHANGES.md, PR 20). From 256 us up the two-core bank sits on
// the protocol's message floor (8.54 wire msgs/op against 9.5-9.8 without the
// wait, 8.64 at 64 us) and 48 oversubscribed cores commit 92 % of their
// attempts, so long absences and long transactions decide. A holder away
// for 10 ms costs the loser a dozen attempts until its waits reach the cap
// and one per half cap from there: over 15 s the worst operation needs 27-36
// attempts at 1 ms and 21-22 at 4 ms (thousands without the wait). And with
// 20 % 1,024-account balance scans an uncapped wait grows with the scan it
// follows — tens of milliseconds in which the core attempts nothing — and
// loses a third of the throughput (1.02 ops/ms against the parent's 1.42,
// p99 lifespan 170-200 ms against 100-130), where 1 ms and 4 ms do not
// (1.72 and 1.62, inside each other's spread).
const retryWaitCap = 4 * time.Millisecond

// retryWait draws how long an operation waits between an aborted attempt and
// its next one: uniform over the time the operation has already spent, up to
// retryWaitCap. Proportional, so the wait is nothing after a 5 us loss to a
// holder that is running and grows only while the holder stays away; random,
// so two losers do not come back in step. The draws are the runtime's own:
// proc.Rand's belong to the workload, whose op stream must not depend on how
// often the host made it wait.
func (rt *Runtime) retryWait(lifeStart sim.Time) time.Duration {
	spent := min(rt.proc.Now()-lifeStart, sim.Time(retryWaitCap))
	if spent <= 0 {
		return 0
	}
	return time.Duration(rt.waitRng.Int63() % int64(spent))
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

// Read returns the single word object at addr.
func (tx *Tx) Read(addr mem.Addr) uint64 { return tx.readNView(addr, 1)[0] }

// ReadN returns the n-word object at base. Under Normal and ElasticEarly
// kinds this is Algorithm 4: the read lock is acquired from the responsible
// DTM node before the shared memory is read (visible reads, early
// acquisition). Under ElasticRead no lock is taken; the previous reads in
// the validation window are re-read instead. The returned slice is a copy
// the caller owns.
func (tx *Tx) ReadN(base mem.Addr, n int) []uint64 {
	return cloneWords(tx.readNView(base, n))
}

// readNView is ReadN minus the defensive copy: the returned slice aliases
// transaction-owned storage (write buffer, read set, validation window or
// the per-attempt word arena) and is valid only until the next operation on
// the transaction. The typed accessors decode from it immediately, which
// keeps the codec hot path allocation-free; everything user-facing goes
// through ReadN.
func (tx *Tx) readNView(base mem.Addr, n int) []uint64 {
	rt := tx.rt
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.Wrapper))
	if v, ok := tx.writes[base]; ok {
		return v
	}
	if v, ok := tx.reads[base]; ok {
		return v
	}
	if rt.s.tl2() {
		// Every kind reads invisibly under TL2: the elastic relaxations
		// exist to soften visible read locking, which TL2 never performs.
		return tx.readTL2(base, n)
	}
	if tx.kind == ElasticRead {
		return tx.elasticRead(base, n)
	}
	tx.checkAborted()
	key := rt.s.lockKey(base)
	resp := rt.rpcReadLock(tx, key)
	if !resp.OK {
		k := resp.Kind
		putRespLock(resp)
		panic(tx.rt.signal(abortSignal{kind: k, hasKind: true, reason: trace.ReasonConflict}))
	}
	putRespLock(resp)
	// Record the grant before anything can abort the attempt: if the lock
	// were not in the read set when the post-read abort check fires, the
	// cleanup would never release it and the stale entry could block that
	// object forever.
	vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, base, rt.wordBuf(n))
	tx.reads[base] = vals
	tx.readOrder = append(tx.readOrder, base)
	tx.lastGrant = rt.proc.Now()
	rt.emit(trace.KRead, tx.id, uint64(key), 0, 0)
	tx.checkAborted()
	return vals
}

// elasticRead performs a lock-free read with consecutive-read validation
// (§6.1, elastic-read): before reading the next object, every object in the
// window is re-read from shared memory; a change aborts the attempt.
// Re-reading an object already in the window returns the windowed value
// without rotating the window, so update operations that re-touch the node
// they are about to write keep that node under commit-time validation.
func (tx *Tx) elasticRead(base mem.Addr, n int) []uint64 {
	rt := tx.rt
	for i := 0; i < tx.nwin; i++ {
		if tx.window[i].base == base {
			return tx.window[i].vals
		}
	}
	tx.validateWindow(true)
	vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, base, rt.wordBuf(n))
	tx.pushWindow(base, vals)
	return vals
}

func (tx *Tx) pushWindow(base mem.Addr, vals []uint64) {
	if tx.nwin < len(tx.window) {
		tx.window[tx.nwin] = winEntry{base, vals}
		tx.nwin++
		return
	}
	tx.window[0] = tx.window[1]
	tx.window[1] = winEntry{base, vals}
}

// validateWindow re-reads the window entries and aborts on any change.
// charged selects whether the re-reads cost memory latency (the final
// commit-time re-check is folded into the persist and is free).
func (tx *Tx) validateWindow(charged bool) {
	rt := tx.rt
	for i := 0; i < tx.nwin; i++ {
		w := tx.window[i]
		changed := false
		if charged {
			if cap(rt.winBuf) < len(w.vals) {
				rt.winBuf = make([]uint64, len(w.vals))
			}
			cur := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, w.base, rt.winBuf[:len(w.vals)])
			changed = !slices.Equal(cur, w.vals)
		} else {
			for j, was := range w.vals {
				if rt.s.Mem.ReadRaw(w.base+mem.Addr(j)) != was {
					changed = true
					break
				}
			}
		}
		if changed {
			rt.emit(trace.KDoomedRead, tx.id, uint64(w.base), 0, 0)
			panic(tx.rt.signal(abortSignal{reason: trace.ReasonDoomedRead}))
		}
	}
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
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.Wrapper))
	if rt.s.cfg.Acquire == Eager {
		key := rt.s.lockKey(base)
		if !containsAddr(tx.wlocked, key) {
			tx.checkAborted()
			resp := rt.rpcWriteLock(tx, key)
			if !resp.OK {
				k := resp.Kind
				putRespLock(resp)
				panic(tx.rt.signal(abortSignal{kind: k, hasKind: true, reason: trace.ReasonConflict}))
			}
			tx.wlocked = append(tx.wlocked, key)
			rt.eagerKey[0] = key
			tx.recordGrantVers(rt.eagerKey[:], resp.Vers)
			putRespLock(resp)
		}
	}
	if _, ok := tx.writes[base]; !ok {
		tx.writeOrd = append(tx.writeOrd, base)
	}
	buf := rt.wordBuf(len(vals))
	copy(buf, vals)
	tx.writes[base] = buf
}

// EarlyRelease drops the read locks of the given objects before commit
// (elastic-early, §6.1). The release messages are fire-and-forget, like
// DSTM's explicit release. Objects not in the read set are ignored.
func (tx *Tx) EarlyRelease(bases ...mem.Addr) {
	rt := tx.rt
	if tx.kind != ElasticEarly {
		panic(fmt.Sprintf("core: EarlyRelease on %v transaction", tx.kind))
	}
	if rt.s.tl2() {
		// Invisible reads hold no locks to release; the reads stay in the
		// set and remain snapshot-validated (strictly stronger semantics).
		return
	}
	keys := rt.erKeys[:0]
	for _, b := range bases {
		if _, ok := tx.reads[b]; !ok {
			continue
		}
		delete(tx.reads, b)
		keys = append(keys, rt.s.lockKey(b))
	}
	rt.erKeys = keys
	// Scatter: all per-node release messages go out in one burst (they are
	// fire-and-forget, so there is nothing to gather).
	for _, g := range rt.groupByNode(keys) {
		msg := getEarlyRelease()
		msg.Addrs = append(msg.Addrs[:0], g.addrs...)
		msg.Core = rt.core
		msg.TxID = tx.id
		rt.shard.EarlyReleases++
		rt.burstToNode(g.node, msg)
	}
	rt.flushOut()
}

// commit implements Algorithm 3 (txcommit): acquire the write locks (batched
// per responsible node unless disabled), switch to the non-abortable
// committing state, persist the write set, release every lock. Declared
// read-only transactions branch into the leaner commitReadOnly instead.
func (tx *Tx) commit() {
	if tx.rt.s.tl2() {
		tx.commitTL2()
		return
	}
	if tx.kind == ReadOnly {
		tx.commitReadOnly()
		return
	}
	rt := tx.rt
	tx.checkAborted()
	start := rt.proc.Now()
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.Commit))

	if len(tx.writeOrd) > 0 && rt.s.cfg.Acquire == Lazy {
		tx.acquireCommitLocks()
	}

	if len(tx.writeOrd) > 0 {
		// Become non-abortable. If the CAS fails, a CM got to us first.
		if !rt.s.Regs.CASStatusLocal(rt.core, tx.id, mem.TxPending, mem.TxCommitting) {
			panic(tx.rt.signal(abortSignal{reason: trace.ReasonRevoked}))
		}
		if tx.kind == ElasticRead {
			// Final consecutive-read validation at the persist instant.
			func() {
				defer func() {
					if r := recover(); r != nil {
						// Roll back to abortable state before unwinding.
						rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxAborted)
						panic(r)
					}
				}()
				tx.validateWindow(false)
			}()
		}
		// Persist the write set to shared memory.
		rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
		addrs, vals := tx.writeBackLists()
		rt.s.Mem.WriteBatch(rt.proc, rt.core, addrs, vals)
		rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
	}

	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxCommitted)
	if rt.s.audit != nil {
		instant := rt.proc.Now() // updates: persist completion, all locks held
		if len(tx.writeOrd) == 0 {
			instant = tx.lastGrant // read-only: the last read's instant
		}
		rt.s.recordCommit(tx, instant)
	}
	rt.releaseAll(tx)
	rt.commitLat.Observe(rt.proc.Now() - start)
}

// commitReadOnly is the declared read-only commit: there is no write set to
// scan, no committing-state CAS, no persist, and no commit-lock machinery —
// only the fire-and-forget release burst for the read locks, whose validity
// the read-lock protocol already established. It therefore charges no
// commit bookkeeping cost: the transaction serializes at its last read, the
// one instant all of its read locks are provably held.
func (tx *Tx) commitReadOnly() {
	rt := tx.rt
	tx.checkAborted()
	start := rt.proc.Now()
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxCommitted)
	if rt.s.audit != nil {
		rt.s.recordCommit(tx, tx.lastGrant)
	}
	rt.releaseAll(tx)
	rt.commitLat.Observe(rt.proc.Now() - start)
}

// writeBackLists flattens the write set into parallel address/value lists
// for the persist WriteBatch, reusing the runtime's scratch (one attempt is
// live per runtime, and WriteBatch consumes the lists before returning).
func (tx *Tx) writeBackLists() ([]mem.Addr, []uint64) {
	rt := tx.rt
	addrs := rt.wbAddrs[:0]
	vals := rt.wbVals[:0]
	for _, base := range tx.writeOrd {
		for i, v := range tx.writes[base] {
			addrs = append(addrs, base+mem.Addr(i))
			vals = append(vals, v)
		}
	}
	rt.wbAddrs, rt.wbVals = addrs, vals
	return addrs, vals
}

// acquireCommitLocks performs the lazy commit's write-lock acquisition: the
// write set is partitioned into per-node batches (one per object under the
// NoBatching ablation) and acquired scatter-gather — every batch sent at
// once, all responses awaited in a single round-trip phase.
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
// Any conflict rejection aborts after the granted batches are recorded for
// rollback.
func (tx *Tx) scatterAcquire(keys []mem.Addr) (stale []mem.Addr) {
	rt := tx.rt
	batches, epoch := tx.commitBatches(keys)
	tx.checkAborted()
	rt.shard.CommitRoundTrips++
	resps := rt.scatterWriteLocks(tx, epoch, batches)
	failed := false
	var failKind cm.Kind
	for i, resp := range resps {
		switch {
		case resp.OK:
			tx.wlocked = append(tx.wlocked, batches[i].addrs...)
			tx.recordGrantVers(batches[i].addrs, resp.Vers)
		case resp.Stale:
			stale = append(stale, batches[i].addrs...)
		case !failed:
			failed, failKind = true, resp.Kind // first rejection in send order, for determinism
		}
		putRespLock(resp)
		resps[i] = nil
	}
	if failed {
		panic(tx.rt.signal(abortSignal{kind: failKind, hasKind: true, reason: trace.ReasonConflict}))
	}
	return stale
}

// commitBatches partitions lock keys into the batches the commit acquires —
// one per responsible DTM node in first-write order, or one per object
// under the NoBatching ablation — and returns the directory epoch the
// grouping was resolved at. Requests built from these batches must go to
// the batch's node and carry that epoch, so a directory change between
// grouping and send is always visible to the receiver. The epoch is read
// BEFORE the first owner lookup: a handoff racing the grouping can then only
// make the stamp older than some owner it vouches for, which fails the
// receiver's fast path and forces the authoritative per-key check — read
// after, it would pair an old owner with the new epoch and a non-owner would
// grant (Directory.Resolve).
func (tx *Tx) commitBatches(keys []mem.Addr) ([]nodeGroup, uint64) {
	rt := tx.rt
	epoch := rt.s.dir.Epoch()
	batches := rt.batchScratch[:0]
	for _, g := range rt.groupByNode(keys) {
		if rt.s.cfg.NoBatching {
			// One batch per object: each aliases a one-element sub-slice of
			// the group's storage (full slice expression, so appends to one
			// batch can never scribble on the next). The batches are consumed
			// before the next groupByNode call reuses that storage.
			for i := range g.addrs {
				batches = append(batches, nodeGroup{node: g.node, addrs: g.addrs[i : i+1 : i+1]})
			}
		} else {
			batches = append(batches, g)
		}
	}
	rt.batchScratch = batches
	return batches, epoch
}

// abortCleanup releases every lock held by the failed attempt and marks the
// status register.
func (rt *Runtime) abortCleanup(tx *Tx, sig abortSignal) {
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxAborted)
	rt.releaseAll(tx)
	rt.stats.Aborts++
	rt.shard.AbortReasons[sig.reason]++
	if sig.hasKind {
		rt.shard.AbortsByKind[sig.kind]++
	}
	kindEnc := uint64(0)
	if sig.hasKind {
		kindEnc = uint64(sig.kind) + 1
	}
	rt.emit(trace.KAbort, tx.id, uint64(sig.reason), kindEnc, 0)
	rt.s.snap.AddAbort()
	tx.runHooks(tx.onAbort)
}

// releaseAll sends one release message per DTM node covering the attempt's
// remaining read locks and acquired write locks, all in one fire-and-forget
// burst (scatter with nothing to gather). Nodes are visited in first-use
// order (reads in read order, then write locks in acquisition order) so
// identical runs schedule identical events.
func (rt *Runtime) releaseAll(tx *Tx) {
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseRelease), 0, 0)
	if rt.relIdx == nil {
		rt.relIdx = make(map[int]int)
	}
	clear(rt.relIdx)
	rt.relGroups = rt.relGroups[:0]
	if tx.kind != ElasticRead && !rt.s.tl2() {
		// Elastic-read and TL2 reads are invisible: no read locks exist.
		for _, base := range tx.readOrder {
			if _, held := tx.reads[base]; !held {
				continue // early-released
			}
			key := rt.s.lockKey(base)
			g := rt.relGroupFor(rt.s.nodeFor(key))
			g.reads = append(g.reads, key)
		}
	}
	for _, key := range tx.wlocked {
		g := rt.relGroupFor(rt.s.nodeFor(key))
		g.writes = append(g.writes, key)
	}
	for i := range rt.relGroups {
		g := &rt.relGroups[i]
		msg := getRelLocks()
		msg.ReadAddrs = append(msg.ReadAddrs[:0], g.reads...)
		msg.WriteAddrs = append(msg.WriteAddrs[:0], g.writes...)
		msg.Core = rt.core
		msg.TxID = tx.id
		rt.shard.ReleaseMsgs++
		rt.burstToNode(g.node, msg)
	}
	rt.flushOut()
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseRelease), 0, 0)
}

// relGroup is releaseAll's per-node accumulator; the slices are runtime-
// owned scratch, copied into the pooled message before send.
type relGroup struct {
	node          int
	reads, writes []mem.Addr
}

// relGroupFor returns the release group for node ni, appending a new one
// (reusing any retained slice capacity in that slot) on first use. The
// returned pointer is only valid until the next relGroupFor call — callers
// use it immediately.
func (rt *Runtime) relGroupFor(ni int) *relGroup {
	if gi, ok := rt.relIdx[ni]; ok {
		return &rt.relGroups[gi]
	}
	gi := len(rt.relGroups)
	rt.relIdx[ni] = gi
	if gi < cap(rt.relGroups) {
		rt.relGroups = rt.relGroups[:gi+1]
		g := &rt.relGroups[gi]
		g.node = ni
		g.reads = g.reads[:0]
		g.writes = g.writes[:0]
	} else {
		rt.relGroups = append(rt.relGroups, relGroup{node: ni})
	}
	return &rt.relGroups[gi]
}

// writeKeys returns the deduplicated lock keys of the write set, in first-
// write order.
func (tx *Tx) writeKeys() []mem.Addr {
	rt := tx.rt
	if rt.wkSeen == nil {
		rt.wkSeen = make(map[mem.Addr]bool, len(tx.writeOrd))
	}
	clear(rt.wkSeen)
	keys := rt.wkKeys[:0]
	for _, base := range tx.writeOrd {
		k := rt.s.lockKey(base)
		if !rt.wkSeen[k] {
			rt.wkSeen[k] = true
			keys = append(keys, k)
		}
	}
	rt.wkKeys = keys
	return keys
}

type nodeGroup struct {
	node  int
	addrs []mem.Addr
}

// groupByNode partitions lock keys by responsible DTM node, preserving the
// relative order of first appearance (deterministic batching).
func (rt *Runtime) groupByNode(keys []mem.Addr) []nodeGroup {
	if rt.ngIdx == nil {
		rt.ngIdx = make(map[int]int)
	}
	clear(rt.ngIdx)
	groups := rt.ngGroups[:0]
	for _, k := range keys {
		ni := rt.s.nodeFor(k)
		gi, ok := rt.ngIdx[ni]
		if !ok {
			gi = len(groups)
			rt.ngIdx[ni] = gi
			if gi < cap(groups) {
				groups = groups[:gi+1]
				groups[gi].node = ni
				groups[gi].addrs = groups[gi].addrs[:0]
			} else {
				groups = append(groups, nodeGroup{node: ni})
			}
		}
		groups[gi].addrs = append(groups[gi].addrs, k)
	}
	rt.ngGroups = groups
	return groups
}

// drainRequests serves any queued DTM requests at a transaction boundary
// (Multitask cooperative yield).
func (rt *Runtime) drainRequests() {
	if rt.node == nil {
		return
	}
	for {
		m, ok := rt.proc.TryRecv()
		if !ok {
			// End of the boundary dispatch: responses staged for the
			// requests served above leave before the core resumes
			// transactional work (which may block on its own receives).
			rt.node.flushOut(rt.proc)
			return
		}
		if !rt.node.handle(rt.proc, m) {
			if b, isB := m.Payload.(barrierMsg); isB {
				rt.barrierSeen[b.Epoch]++
				continue
			}
			panic(fmt.Sprintf("core: app%d unexpected message %T at tx boundary", rt.core, m.Payload))
		}
	}
}

// Barrier blocks until every application core has reached the same barrier
// (§8 privatization support): each core sends a barrier message to all other
// application cores and waits for all of theirs.
func (rt *Runtime) Barrier() {
	rt.barrierEpoch++
	epoch := rt.barrierEpoch
	msg := barrierMsg{Epoch: epoch}
	for _, other := range rt.s.runtimes {
		if other == rt {
			continue
		}
		rt.s.send(&rt.shard, rt.rec, rt.proc, rt.core, other.proc, other.core, msg, msg.bytes())
	}
	for rt.barrierSeen[epoch] < len(rt.s.runtimes)-1 {
		m := rt.proc.Recv()
		switch pl := m.Payload.(type) {
		case barrierMsg:
			rt.barrierSeen[pl.Epoch]++
		default:
			if rt.node != nil && rt.node.handle(rt.proc, m) {
				rt.node.flushOut(rt.proc)
				continue
			}
			panic(fmt.Sprintf("core: app%d unexpected message %T in barrier", rt.core, m.Payload))
		}
	}
	delete(rt.barrierSeen, epoch)
}

func cloneWords(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	copy(out, v)
	return out
}

func containsAddr(s []mem.Addr, a mem.Addr) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}
