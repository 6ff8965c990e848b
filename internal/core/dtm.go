package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cm"
	"repro/internal/dslock"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

// dtmNode is one DTM service node: it owns the lock table for the slice of
// the address space the placement directory maps to it and arbitrates
// conflicts through the configured contention manager (§3.2).
//
// All of a node's mutable state — lock table, exclusivity token, counter
// shard — is touched only from its serving execution context: the dedicated
// service port's goroutine, or the co-located application port under
// Multitask. That single-writer discipline is what lets the node run
// lock-free on the live backend.
type dtmNode struct {
	s     *System
	idx   int
	core  int // physical core hosting the node
	table *dslock.Table
	excl  exclState // irrevocable-transaction exclusivity token
	reqs  uint64    // requests served (Stats.NodeLoad)
	shard Stats     // this node's counters, merged at snapshot

	// rec is the node's flight-recorder lane (nil when Config.Trace is
	// unset). Touched only from the serving execution context, like every
	// other mutable field above.
	rec *trace.Recorder

	// Drained-stripe scan gate (maybeHandoffs): the directory freeze
	// generation covered by the last tryHandoffs scan, and whether the lock
	// table has shrunk since (release or revocation).
	handoffGen  uint64
	shrunk      bool
	heldScratch []bool // tryHandoffs: pending stripe i still holds a lock

	// busy: another message, queued, waits behind the one being served
	// (dispatchBurst). A busy node spends no register read on deciding
	// whether a winning holder has finished (handleLock); it only checks
	// whether the queued message releases the holder's lock (releasedNext).
	busy   bool
	queued port.Msg

	// endedTo holds, per core, the highest attempt ID of that core the node
	// knows to have ended (0: none). A core runs its attempts one at a time,
	// under IDs that only increase (Runtime.nextTxID), so every attempt of
	// the core at or below it has ended too, and its locks here are stale.
	endedTo []uint64

	keyScratch []mem.Addr // drainFinished, tryHandoffs: locked keys, in order

	// acqScratch accumulates the addresses a write-lock batch has acquired
	// so far, for rollback on a mid-batch conflict. Serving is single-
	// threaded per node, so one buffer serves every batch.
	acqScratch []mem.Addr
}

// serveLoop is the one DTM service loop — a dedicated node's whole life, and
// a multitasked core's once its workload has finished: block for a message,
// serve it and whatever queued behind it, repeat. The port is reclaimed by
// the backend at shutdown.
func (n *dtmNode) serveLoop(p port.Port) {
	for {
		n.dispatchBurst(p, p.Recv())
	}
}

// dispatchBurst serves m and the already-queued backlog in strict arrival
// order. The next message is taken before the current one is served, so the
// node knows whether anyone waits behind it (busy). Service order is plain
// FIFO — the loop is Recv-handle unrolled with O(1) receives, no mailbox
// scans — and every response leaves the instant it was served.
func (n *dtmNode) dispatchBurst(p port.Port, m port.Msg) {
	n.queued, n.busy = p.TryRecv()
	for {
		n.handle(p, m)
		if !n.busy {
			if n.queued, n.busy = p.TryRecv(); !n.busy {
				break
			}
		}
		m = n.queued
		n.queued, n.busy = p.TryRecv()
	}
	n.queued, n.busy = port.Msg{}, false
}

// handle dispatches one incoming message. It returns true if the message
// was a DTM request (the multitask await loop uses this to distinguish
// requests from transaction responses).
func (n *dtmNode) handle(p port.Port, m port.Msg) bool {
	// The node is each request's final toucher: the handlers consume the
	// message (responses carry no pointer back into it), so the arms recycle
	// it — except a token request handleLock queued.
	switch r := m.Payload.(type) {
	case *reqLock:
		n.switchIn(p)
		rel := r.Rel
		r.Rel = nil
		if n.handleLock(p, r) {
			putLockReq(r)
		}
		if rel != nil {
			// The requester's release of an earlier attempt, served after
			// the request's answer leaves. Safe: a core's own locks never
			// conflict with its request, and a lock the request took
			// replaced the older attempt's entry, which the release then no
			// longer matches.
			n.handleRelease(p, rel, 0)
			n.tryGrantExclusive(p)
			putRelLocks(rel)
		}
	case *relLocks:
		n.switchIn(p)
		n.handleRelease(p, r, costs.SvcBase)
		n.tryGrantExclusive(p)
		putRelLocks(r)
	default:
		return false
	}
	n.reqs++
	return true
}

// switchIn charges the coroutine-switch cost of serving a request on a
// multitasked core (§3.1/Figure 2); dedicated service cores pay nothing.
func (n *dtmNode) switchIn(p port.Port) {
	if n.s.cfg.Deployment == Multitask {
		p.Advance(n.s.compute(costs.MultitaskSwitch))
	}
}

// placeOK validates a lock request's placement resolution against the
// directory. Pending handoffs whose stripes have drained are completed
// first, so a retried request observes the freshest ownership instead of
// spinning on a frozen-but-empty stripe.
//
// The wire epoch is the fast path: a request stamped with the current
// epoch was resolved against the current table — by a protocol-obeying
// sender, to the node the directory named — so if this node also has no
// handoff pending, none of the request's stripes can be frozen here (a
// frozen stripe keeps its owner marked pending until completion) and the
// per-key scan is skipped. That covers all traffic outside migration
// windows.
// All reads come from one snapshot, taken after this node's own handoffs: a
// freeze another core publishes meanwhile is seen by every read or by none.
func (n *dtmNode) placeOK(p port.Port, epoch uint64, keys ...mem.Addr) bool {
	n.maybeHandoffs(p)
	v := n.s.dir.Snapshot()
	if epoch == v.Epoch() && !v.HasPending(n.idx) {
		return true
	}
	return v.ValidFor(n.idx, keys...)
}

// maybeHandoffs runs the drained-stripe scan only when a frozen stripe
// could actually have drained since the last scan: the table shrank, or the
// directory froze another of this node's stripes (a fresh freeze may
// already be lock-free and would otherwise never hand off). Without the
// gate, every request arriving during a migration window would pay a full
// O(lock-table) scan.
func (n *dtmNode) maybeHandoffs(p port.Port) {
	v := n.s.dir.Snapshot()
	if !v.HasPending(n.idx) {
		n.shrunk = false
		return
	}
	gen := v.FreezeGen(n.idx)
	if !n.shrunk && gen == n.handoffGen {
		return
	}
	n.handoffGen = gen
	n.shrunk = false
	n.tryHandoffs(p, v.PendingFor(n.idx))
}

// tryHandoffs completes every pending outgoing migration whose stripe holds
// no lock of a running attempt in this node's table: the locks of finished
// attempts in the frozen stripes are revoked first, key by key in address
// order. Then ownership flips in the directory for every stripe left
// without a lock, and subsequent resolutions return the new owner. Nothing
// is copied — a drained stripe has no lock state to move. pending is this
// node's frozen stripes, ascending, from the caller's snapshot.
func (n *dtmNode) tryHandoffs(p port.Port, pending []int) {
	dir := n.s.dir
	frozen := func(a mem.Addr) bool {
		_, ok := slices.BinarySearch(pending, dir.StripeOf(a))
		return ok
	}
	by := cm.Meta{Core: n.core} // the node itself, not a requester
	for _, a := range n.lockedKeys(frozen) {
		n.clearFinished(p, a, by)
	}
	held := append(n.heldScratch[:0], make([]bool, len(pending))...)
	n.table.ForEach(func(a mem.Addr) {
		if i, ok := slices.BinarySearch(pending, dir.StripeOf(a)); ok {
			held[i] = true
		}
	})
	for i, stripe := range pending {
		if !held[i] {
			dir.CompleteHandoff(stripe)
		}
	}
	n.heldScratch = held
}

// nackStale rejects a lock request whose placement resolution went stale.
// The NACK carries the directory epoch and — for single-key requests — the
// key's current owner, so the requester can chase a migrated stripe without
// a fresh resolution round; multi-key batches must re-partition against the
// directory anyway (migration may split them) and get no owner hint. The
// receiver's placeOK stays authoritative, so a hint gone stale in flight
// costs at worst one more NACK, inside the same hop bound.
func (n *dtmNode) nackStale(p port.Port, r *reqLock) {
	n.shard.StaleNacks++
	resp := getRespLock()
	resp.ReqID = r.ReqID
	resp.Stale = true
	v := n.s.dir.Snapshot()
	resp.NackEpoch = v.Epoch()
	if len(r.Addrs) == 1 {
		resp.NackOwner = v.Owner(r.Addrs[0])
	}
	n.emit(p, trace.KLockStale, 0, trace.FlowID(r.ReplyTo, r.ReqID), resp.NackEpoch, uint64(resp.NackOwner+1))
	n.respond(p, r.Reply, r.ReplyTo, resp)
}

// nack rejects a lock request over a conflict of the given class: the
// requester's attempt aborts. winner is the attempt that decided the
// conflict, named in the NACK (Core < 0: none): the enemy whose priority
// won, the enemy too far into its commit to be aborted, or the irrevocable
// transaction that holds or awaits the node's token.
func (n *dtmNode) nack(p port.Port, r *reqLock, kind cm.Kind, winner cm.Meta) {
	n.emit(p, trace.KLockNack, r.Meta.TxID, trace.FlowID(r.ReplyTo, r.ReqID), uint64(kind), trace.WinnerWord(winner.Core, winner.TxID))
	resp := getRespLock()
	resp.ReqID, resp.Kind = r.ReqID, kind
	resp.NackOwner, resp.NackEpoch = winner.Core, winner.TxID
	n.respond(p, r.Reply, r.ReplyTo, resp)
}

// handleLock implements Algorithm 1 (dsl_read_lock) in read mode and
// Algorithm 2 (dsl_write_lock) in write mode, for every key of the request,
// plus the revocation protocol: on a conflict the locks of holders the node
// knows to have ended go first (revokeKnown); then the contention manager
// either aborts the requester or remotely aborts the holders and steals
// their locks; at a node nobody waits at, a verdict for the holders first
// takes the locks of finished attempts away (revokeFinished). A batch is all
// or nothing: on failure its own acquisitions are rolled back before the
// conflict reply, so the requester never holds partial state it does not
// know about. Exclusive mode queues for the token instead; only then does it
// return false, and tryGrantExclusive recycles the request once it grants.
func (n *dtmNode) handleLock(p port.Port, r *reqLock) bool {
	p.Advance(n.s.compute(costs.SvcBase + costs.SvcLock*time.Duration(len(r.Addrs))))
	if r.Mode == lockExclusive {
		n.excl.queue = append(n.excl.queue, r)
		n.tryGrantExclusive(p)
		return false
	}
	if !n.placeOK(p, r.Epoch, r.Addrs...) {
		n.nackStale(p, r)
		return true
	}
	if e := r.Ended; e.Core >= 0 {
		n.learn(cm.Meta{Core: e.Core, TxID: e.TxID}) // the requester found it ended
	}
	write := r.Mode == lockWrite
	if n.excl.blocked() {
		// An irrevocable transaction holds or awaits this node's
		// exclusivity token: reject so the table drains (§2 extension).
		kind := cm.RAW
		if write {
			kind = cm.WAW
		}
		n.nack(p, r, kind, n.excl.first())
		return true
	}
	meta := r.Meta
	n.s.cfg.Policy.ArrivalPrio(&meta, p.Now())
	acquired := n.acqScratch[:0]
	defer func() { n.acqScratch = acquired[:0] }()
	for _, addr := range r.Addrs {
		for {
			var conf *dslock.Conflict
			if write {
				conf = n.table.WriteConflict(addr, meta)
			} else {
				conf = n.table.ReadConflict(addr, meta)
			}
			if conf == nil {
				if write {
					n.table.SetWriter(addr, meta)
				} else {
					n.table.AddReader(addr, meta)
				}
				acquired = append(acquired, addr)
				break
			}
			n.shard.Conflicts++
			if n.revokeKnown(p, addr, meta, conf.Enemies) {
				continue // busy or not, a lock the watermark shows stale does not count
			}
			d, win := n.s.cfg.Policy.ResolveWinner(meta, conf.Enemies, conf.Kind)
			if d == cm.AbortRequester && n.busy && n.releasedNext(addr, conf.Enemies) {
				continue // the lock was on its way out: re-check
			}
			if d == cm.AbortRequester && !n.busy && n.revokeFinished(p, addr, meta, conf.Enemies, win) {
				continue // a finished attempt's lock does not win: re-check
			}
			if d == cm.AbortEnemies {
				if win = n.abortEnemies(p, addr, meta, conf.Enemies); win < 0 {
					// Enemies aborted and revoked; re-check (bounded: the
					// conflict classes can only shrink).
					continue
				}
			}
			winner := cm.Meta{Core: -1} // NoCM, BackoffRetry: no priority decided
			if win >= 0 {
				winner = conf.Enemies[win]
			}
			for _, a := range acquired {
				if write {
					n.table.ReleaseWrite(a, meta.Core, meta.TxID)
				} else {
					n.table.ReleaseRead(a, meta.Core, meta.TxID)
				}
			}
			n.nack(p, r, conf.Kind, winner)
			return true
		}
	}
	n.emit(p, trace.KLockGrant, r.Meta.TxID, trace.FlowID(r.ReplyTo, r.ReqID), uint64(len(r.Addrs)), 0)
	resp := getRespLock()
	resp.ReqID, resp.OK = r.ReqID, true
	if write && n.s.clock != nil {
		// Stripes are versioned (a version clock exists: TL2). Piggyback the
		// granted stripes' current versions: the committer revalidates its
		// read∩write stripes against these without touching memory again.
		// Stable until the holder's own write-back — a marker could only be
		// set by another lock holder, which cannot exist.
		for _, a := range r.Addrs {
			resp.Vers = append(resp.Vers, n.s.Mem.VersionRaw(a))
		}
	}
	n.respond(p, r.Reply, r.ReplyTo, resp)
	return true
}

// abortEnemies tries to remotely abort every enemy transaction via its
// status register (§4.1: "the status of such an aborting transaction is
// atomically switched from pending to aborted"), for requester by; stale
// locks left by finished attempts are revoked. It returns the index of the
// first enemy that has already entered its commit phase (TxCommitting) and
// is therefore no longer abortable — the conflict's winner — or -1 once
// every enemy was revoked.
func (n *dtmNode) abortEnemies(p port.Port, addr mem.Addr, by cm.Meta, enemies []cm.Meta) int {
	for i, e := range enemies {
		n.shard.NodeAbortCASes++
		swapped, obsID, obsState := n.s.Regs.CASStatusRemoteObserve(
			p, n.core, e.Core, e.TxID, mem.TxPending, mem.TxAborted)
		if swapped {
			n.revoke(p, addr, by, e, false)
			continue
		}
		if obsID == e.TxID && obsState == mem.TxCommitting {
			// The enemy holds all its write locks and is persisting; it
			// cannot be aborted. Its commit is finite, so aborting the
			// requester preserves starvation-freedom.
			return i
		}
		// The lock is stale: the attempt already aborted or committed
		// (persist happens before release, so revoking is safe), or the
		// core has moved on to a newer attempt.
		n.revoke(p, addr, by, e, true)
	}
	return -1
}

// revokeFinished checks a verdict against the requester: from the enemy that
// decided it (win, or the first), every enemy whose attempt has finished
// loses its lock at addr, up to the first one still running, which keeps its
// lock and its win. It reports whether it revoked any: the conflict must
// then be checked again. A finished attempt's lock stands only for a
// release on its way or still carried (Runtime.carryOn); revoking it is
// safe for the reason abortEnemies' stale branch is: write-back happens
// before Committed, rollback before Aborted.
func (n *dtmNode) revokeFinished(p port.Port, addr mem.Addr, by cm.Meta, enemies []cm.Meta, win int) bool {
	revoked := false
	for _, e := range enemies[max(win, 0):] {
		if !n.ended(p, e) {
			break
		}
		n.revoke(p, addr, by, e, true)
		revoked = true
	}
	return revoked
}

// releasedNext applies ahead of its turn the queued message's release (on
// its own or carried by a request) of an enemy's lock at addr, and reports
// whether it did: served in turn, the lock would win at a busy node. The
// release may be a running attempt's early release: the watermark learns
// nothing.
func (n *dtmNode) releasedNext(addr mem.Addr, enemies []cm.Meta) bool {
	r, _ := n.queued.Payload.(*relLocks)
	if req, ok := n.queued.Payload.(*reqLock); ok {
		r = req.Rel
	}
	if r == nil {
		return false
	}
	for _, e := range enemies {
		if e.Core != r.Core || e.TxID != r.TxID {
			continue
		}
		switch {
		case slices.Contains(r.ReadAddrs, addr):
			return n.table.ReleaseRead(addr, e.Core, e.TxID)
		case slices.Contains(r.WriteAddrs, addr):
			return n.table.ReleaseWrite(addr, e.Core, e.TxID)
		}
	}
	return false
}

// ended reports whether attempt e has ended: at or below its core's
// watermark with no register operation, above it by one read of its status
// register (System.ended).
func (n *dtmNode) ended(p port.Port, e cm.Meta) bool {
	if n.known(e) {
		return true
	}
	n.shard.NodeEndedReads++
	return n.s.ended(p, n.core, e)
}

// known reports, and counts, whether e's core's watermark shows e ended.
func (n *dtmNode) known(e cm.Meta) bool {
	ok := e.TxID <= n.endedTo[e.Core]
	if ok {
		n.shard.NodeEndedKnown++
	}
	return ok
}

// learn raises e's core's watermark to attempt e, which has ended.
func (n *dtmNode) learn(e cm.Meta) {
	n.endedTo[e.Core] = max(n.endedTo[e.Core], e.TxID)
}

// revokeKnown takes away, for by, the locks at addr of every enemy the
// watermark shows ended, and reports whether it revoked any.
func (n *dtmNode) revokeKnown(p port.Port, addr mem.Addr, by cm.Meta, enemies []cm.Meta) bool {
	revoked := false
	for _, e := range enemies {
		if n.known(e) {
			n.revoke(p, addr, by, e, true)
			revoked = true
		}
	}
	return revoked
}

// clearFinished revokes, for by, the locks at addr of finished attempts, and
// reports whether no attempt of another core than by's holds addr then:
// false at the first running holder.
func (n *dtmNode) clearFinished(p port.Port, addr mem.Addr, by cm.Meta) bool {
	for conf := n.table.WriteConflict(addr, by); conf != nil; conf = n.table.WriteConflict(addr, by) {
		if !n.revokeFinished(p, addr, by, conf.Enemies, -1) {
			return false
		}
	}
	return true
}

// lockedKeys returns the locked addresses that keep selects, in address
// order, so the register reads clearFinished makes over them happen in the
// same order on every run. The slice is scratch, valid until the next call.
func (n *dtmNode) lockedKeys(keep func(mem.Addr) bool) []mem.Addr {
	keys := n.keyScratch[:0]
	n.table.ForEach(func(a mem.Addr) {
		if keep(a) {
			keys = append(keys, a)
		}
	})
	slices.Sort(keys)
	n.keyScratch = keys
	return keys
}

// revoke takes enemy e's lock at addr away for requester by, if e holds
// one: a remote abort, or with stale set the lock of an attempt that had
// already finished. Either way e's attempt has ended: the watermark learns
// it.
func (n *dtmNode) revoke(p port.Port, addr mem.Addr, by, e cm.Meta, stale bool) {
	n.learn(e)
	if !n.table.Revoke(addr, e.Core, e.TxID) {
		return
	}
	if stale {
		n.shard.StaleRevokes++
	} else {
		n.shard.Revocations++
	}
	n.emit(p, trace.KRevoke, by.TxID, trace.RevokeWord(e.Core, by.Core, stale), e.TxID, uint64(addr))
	n.shrunk = true
}

// handleRelease frees a release's locks, or returns the exclusivity token
// (a stale token release is a no-op), charging base plus SvcRelease per key:
// SvcBase for a release that came on its own, nothing more for one a lock
// request carried.
func (n *dtmNode) handleRelease(p port.Port, r *relLocks, base time.Duration) {
	ops := len(r.ReadAddrs) + len(r.WriteAddrs)
	p.Advance(n.s.compute(base + costs.SvcRelease*time.Duration(ops)))
	if r.Exclusive {
		if n.excl.held && n.excl.owner == r.Core && n.excl.ownerTx == r.TxID {
			n.excl.held = false
		}
		return
	}
	for _, a := range r.ReadAddrs {
		n.table.ReleaseRead(a, r.Core, r.TxID)
	}
	for _, a := range r.WriteAddrs {
		n.table.ReleaseWrite(a, r.Core, r.TxID)
	}
	// Releases are what drain a frozen stripe: try the handoff now so
	// ownership flips as early as possible.
	n.shrunk = true
	n.maybeHandoffs(p)
}

func (n *dtmNode) respond(p port.Port, reply port.Port, replyCore int, resp *respLock) {
	if reply == nil {
		panic(fmt.Sprintf("core: dtm%d response with no reply proc", n.core))
	}
	n.shard.Responses++
	n.s.send(&n.shard, n.rec, p, n.core, reply, replyCore, resp, respBytes(resp))
}
