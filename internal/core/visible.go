package core

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/trace"
)

// visibleProto is the paper's protocol (Config.Protocol == ProtocolVisible):
// a read acquires its object's read lock from the responsible DTM node
// before it touches shared memory (Algorithm 4 — visible reads, early
// acquisition), so a conflict is met when it happens and the read set needs
// no validation at commit. The elastic kinds (§6.1) soften exactly that
// locking: ElasticEarly gives read locks back before commit (EarlyRelease),
// ElasticRead takes none and re-reads a two-object window instead.
//
// One departure (docs/DEVIATIONS.md): a Normal transaction's read at a
// read-set position its body wrote in each of its last two commits takes
// the write lock instead (Tx.forUpdate), and the commit sends no request
// for it.
type visibleProto struct{}

func (*visibleProto) begin(*Tx)            {}
func (*visibleProto) readsHoldLocks() bool { return true }

func (*visibleProto) firstRead(tx *Tx, base mem.Addr, n int) []uint64 {
	if tx.kind == ElasticRead {
		return tx.elasticRead(base, n)
	}
	rt := tx.rt
	rt.lockKeys = append(rt.lockKeys[:0], base)
	mode := lockRead
	if pos := len(tx.held.first); pos < 64 && tx.forUpdate&(1<<pos) != 0 {
		mode = lockWrite
	}
	return tx.lockedRead(rt.s.dir.Snapshot(), rt.lockKeys, n, mode)
}

// lockedRead takes the locks of keys, n-word objects one DTM node owns under
// place, in one request, then reads each object, and returns the value of
// keys[0]. A stale NACK leaves keys[0] alone to chase (rpcLock); any other
// key granted is one locked ahead of a TArray scan (readAhead). Mode
// lockWrite reads the one key for update: it holds the write lock, in
// tx.wlocked. The read set keeps the keys only: each read here is the
// grant-time read the model charges and the trace records, and a later read
// of the key reads the words again under its lock (Tx.cached).
func (tx *Tx) lockedRead(place placement.Snapshot, keys []mem.Addr, n int, mode lockMode) []uint64 {
	rt := tx.rt
	tx.checkAborted()
	keys = rt.rpcLock(tx, place, keys, mode)
	// Record the grants before anything can abort the attempt: if a lock
	// were not in the read set when the post-read abort check fires, the
	// cleanup would never release it and the stale entry could block that
	// object forever.
	first := scratchWords(&rt.readBuf, n)
	for j, k := range keys {
		buf := first
		if j > 0 {
			buf = scratchWords(&rt.aheadBuf, n)
		}
		vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, k, buf)
		b, bit := tx.held.put(k)
		hold := trace.HoldRead
		switch {
		case j > 0:
			hold = trace.HoldAhead
			tx.run.lockedAhead(k)
		case mode == lockWrite:
			hold = trace.HoldUpdate
			b.forWrite |= bit
			tx.wlocked = append(tx.wlocked, k)
			rt.shard.UpdateReads++
		}
		if rt.rec != nil {
			rt.emit(trace.KRead, tx.id, uint64(k), trace.ValueWord(vals), trace.ReadWord(hold, n))
		}
	}
	rt.shard.ReadAheadKeys += uint64(len(keys) - 1)
	tx.serialAt = rt.proc.Now()
	tx.checkAborted()
	return first
}

// readAheadCap caps how many elements past the one that missed a batched
// read-lock request looks at, and so how many locks a scan that stops early
// can hold unread. Under the squared window sim-bank-scc48 sent 43.6 wire
// msgs/op at 512 and 36.3 at 1,024, its scans' length (docs/perf/PR-43.md;
// docs/perf/PR-35.md swept the linear one). A multiple of 64.
const readAheadCap = 1024

// scanRun is an attempt's run of consecutive TArray.Get reads of one array:
// the array, the index that continues the run, the run's length, and the
// elements ahead of the run whose read locks a batched request took and the
// run has not reached yet (bit j % readAheadCap; all lie within readAheadCap
// past the run, so none share a bit).
type scanRun struct {
	arr    mem.Addr
	words  int
	next   int
	len    int
	ahead  [readAheadCap / 64]uint64
	nAhead int
}

// step moves the run to element i of the array at arr and returns the
// lookahead window of a miss there: the run's length squared, capped, from
// its third element on, and 0 before. A read out of sequence starts a new run.
func (r *scanRun) step(rt *Runtime, arr mem.Addr, words, i int) int {
	if r.len == 0 || arr != r.arr || i != r.next {
		r.end(rt)
		r.arr, r.words = arr, words
	} else if bit := uint64(1) << (i % 64); r.ahead[i%readAheadCap/64]&bit != 0 {
		r.ahead[i%readAheadCap/64] &^= bit
		r.nAhead--
	}
	r.next, r.len = i+1, r.len+1
	if r.len < 3 {
		return 0
	}
	return min(r.len*r.len, readAheadCap)
}

// lockedAhead notes that the element at k was locked ahead of the run.
func (r *scanRun) lockedAhead(k mem.Addr) {
	j := int(k-r.arr) / r.words
	r.ahead[j%readAheadCap/64] |= 1 << (j % 64)
	r.nAhead++
}

// end closes the run, counting the elements it locked ahead and never
// reached as unused.
func (r *scanRun) end(rt *Runtime) {
	if r.nAhead > 0 {
		rt.shard.ReadAheadUnused += uint64(r.nAhead)
		r.ahead, r.nAhead = [readAheadCap / 64]uint64{}, 0
	}
	r.len = 0
}

// readElem is readNView for the element at base of the n-element array at
// arr (TArray.Get). It keeps the attempt's run of consecutive element reads;
// from the run's third element on, a miss in a Normal or ReadOnly
// transaction under visible reads locks the next elements of the window that
// the missed element's DTM node owns in the same request (readAhead).
func (tx *Tx) readElem(arr, base mem.Addr, words, n int) []uint64 {
	i := int(base-arr) / words
	win := tx.run.step(tx.rt, arr, words, i)
	if vals, ok := tx.cached(base, words); ok {
		return vals
	}
	if win == 0 || !tx.rt.s.proto.readsHoldLocks() || tx.kind != Normal && tx.kind != ReadOnly {
		return tx.rt.s.proto.firstRead(tx, base, words)
	}
	return tx.readAhead(arr, words, n, i, win)
}

// readAhead reads element i, a miss, with the read locks of elements i+1 to
// i+win that lie inside the array, belong to element i's DTM node and are in
// neither set, all in one request, sent under the snapshot that chose them.
func (tx *Tx) readAhead(arr mem.Addr, words, n, i, win int) []uint64 {
	rt := tx.rt
	base := arr + mem.Addr(i*words)
	place := rt.s.dir.Snapshot()
	node := place.Owner(base)
	keys := append(rt.lockKeys[:0], base)
	for j := i + 1; j <= min(i+win, n-1); j++ {
		k := arr + mem.Addr(j*words)
		if place.Owner(k) == node && !tx.held.holds(k) && tx.writes.find(k) < 0 {
			keys = append(keys, k)
		}
	}
	rt.lockKeys = keys
	return tx.lockedRead(place, keys, words, lockRead)
}

// validate has nothing to prove for reads that hold locks; an ElasticRead's
// window gets its final consecutive-read check, at the persist instant (its
// re-reads are folded into the persist and cost nothing).
func (*visibleProto) validate(tx *Tx) (mem.Addr, bool) {
	if tx.kind == ElasticRead {
		return tx.windowChanged(false)
	}
	return 0, true
}

// publish: an update serializes when its persist completes, all locks held.
func (*visibleProto) publish(tx *Tx) port.Time { return tx.rt.proc.Now() }

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
	if at, ok := tx.windowChanged(true); !ok {
		tx.doomed(at)
	}
	_, buf := rt.wordBuf(n)
	vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, base, buf)
	if tx.nwin < len(tx.window) {
		tx.window[tx.nwin] = winEntry{base, vals}
		tx.nwin++
	} else {
		tx.window[0] = tx.window[1]
		tx.window[1] = winEntry{base, vals}
	}
	return vals
}

// windowChanged re-reads the window entries and reports the first object
// whose value changed (ok false). charged selects whether the re-reads cost
// memory latency.
func (tx *Tx) windowChanged(charged bool) (at mem.Addr, ok bool) {
	rt := tx.rt
	for _, w := range tx.window[:tx.nwin] {
		changed := false
		if charged {
			cur := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, w.base, scratchWords(&rt.winBuf, len(w.vals)))
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
			return w.base, false
		}
	}
	return 0, true
}

// EarlyRelease drops the read locks of the given objects before commit
// (elastic-early, §6.1). The release messages are fire-and-forget, like
// DSTM's explicit release. Objects not in the read set are ignored.
func (tx *Tx) EarlyRelease(bases ...mem.Addr) {
	rt := tx.rt
	if tx.kind != ElasticEarly {
		panic(fmt.Sprintf("core: EarlyRelease on %v transaction", tx.kind))
	}
	if !rt.s.proto.readsHoldLocks() {
		// Invisible reads hold no locks to release; the reads stay in the
		// set and remain snapshot-validated (strictly stronger semantics).
		return
	}
	rt.sendCarry()
	place := rt.s.dir.Snapshot()
	for _, b := range bases {
		if tx.held.release(b) {
			d := rt.relSlot(place.Owner(b))
			if d.msg == nil {
				d.msg = getRelLocks()
				d.msg.Core, d.msg.TxID = rt.core, tx.id
			}
			d.msg.ReadAddrs = append(d.msg.ReadAddrs, b)
		}
	}
	rt.endDrafts()
	rt.rels = rt.sendReleases(rt.rels, &rt.shard.EarlyReleases)
}
