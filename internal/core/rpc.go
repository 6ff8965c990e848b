package core

import (
	"fmt"
	"slices"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

// The application-side RPC layer of the DTM protocol. Every lock request
// carries a correlation ID allocated here and echoed by the DTM node
// (messages.go), which lets one application core keep several requests to
// different DTM nodes outstanding at the same time. The commit path uses
// that to scatter-gather its per-node write-lock batches: all batches are
// sent in one burst and their responses awaited together, so a lazy commit
// touching k DTM nodes pays one awaited round-trip phase instead of k
// serial round trips (what that buys: docs/RETIRED.md, ablrpc).
//
// Determinism: requests are sent in a deterministic order (first-use order
// of the write set), responses are matched by ID and processed in send
// order regardless of arrival order, and the await loop's selective receive
// scans the mailbox in delivery order — so identical seeds still produce
// identical event schedules and audited histories.

// wireMsg is any protocol message with a modeled on-wire size.
type wireMsg interface{ bytes() int }

// initRPC prepares the per-core RPC state. The selective-receive predicate
// is built once and reads rt.awaitIDs, so the hot single-response path
// (every read lock) performs no per-call heap allocation.
func (rt *Runtime) initRPC() {
	if rt.s.neng != nil && rt.s.cfg.RPCDeadline > 0 {
		// Only the net transport can lose a message; sim and live awaits
		// may block indefinitely.
		rt.deadlineRecv = rt.proc.(*port.HostPort)
	}
	rt.awaitPred = func(m port.Msg) bool {
		switch pl := m.Payload.(type) {
		case *respLock:
			return slices.Contains(rt.awaitIDs, pl.ReqID)
		case *reqLock, *relLocks: // a request for the co-located node
			return rt.node != nil
		}
		return false
	}
}

// nextReqID allocates a fresh correlation ID for an outbound lock request.
// IDs are per-core and start at 1, so (core, ReqID) is globally unique and
// 0 can serve as the consumed-slot sentinel in awaitIDs.
func (rt *Runtime) nextReqID() uint64 {
	rt.reqID++
	return rt.reqID
}

// sendToNode transmits one protocol message to DTM node ni, charging the
// platform's message latency. It does not block: a burst (a commit scatter,
// a release burst) is a run of sendToNode calls, one wire message each.
func (rt *Runtime) sendToNode(ni int, msg wireMsg) {
	rt.s.send(&rt.shard, rt.rec, rt.proc, rt.core, rt.s.nodePorts[ni], rt.s.nodes[ni].core, msg, msg.bytes())
}

// maxPlacementHops bounds how many times one logical lock request chases
// migrating ownership (stale-epoch NACK → re-resolve → resend) before the
// attempt aborts. The abort releases the attempt's locks, which is exactly
// what lets a frozen stripe the requester itself holds locks on drain, so
// the bound doubles as the protocol's deadlock breaker.
const maxPlacementHops = 8

// placementAbort aborts the attempt after exhausting the stale-NACK hop
// budget.
func (rt *Runtime) placementAbort() {
	rt.shard.PlacementAborts++
	panic(rt.signal(abortSignal{reason: trace.ReasonStalePlacement}))
}

// lockReq builds one lock request with a fresh correlation ID, counting it
// in the shard (the request will be transmitted exactly once).
func (rt *Runtime) lockReq(txID uint64, mode lockMode, epoch uint64, keys []mem.Addr) *reqLock {
	req := getLockReq()
	req.ReqID = rt.nextReqID()
	req.Epoch, req.Mode = epoch, mode
	// Copy the keys into the request's pool-owned storage: the caller's
	// batch slice is per-attempt scratch that will be reused while this
	// request may still be in flight.
	req.Addrs = append(req.Addrs[:0], keys...)
	req.Meta = rt.local.RequestMeta(txID, rt.proc.Now())
	req.Reply = rt.proc
	req.ReplyTo = rt.core
	switch mode {
	case lockRead:
		rt.shard.ReadLockReqs++
	case lockWrite:
		rt.shard.WriteLockReqs++
	default:
		return req // a token request is neither counted nor traced
	}
	rt.emit(trace.KLockReq, txID, trace.FlowID(rt.core, req.ReqID), uint64(keys[0]), uint64(len(keys)))
	return req
}

// conflictAbort aborts the attempt over a conflict NACK, consuming it. The
// attempt the NACK names as its winner, if any, is kept for runLoop to wait
// on (awaitWinner); polled says winnerEnded has read its register once
// already.
func (rt *Runtime) conflictAbort(resp *respLock, polled bool) {
	rt.winner, rt.winPolled = cm.Meta{Core: resp.NackOwner, TxID: resp.NackEpoch}, polled
	kind := resp.Kind
	putRespLock(resp)
	panic(rt.signal(abortSignal{kind: kind, hasKind: true, reason: trace.ReasonConflict}))
}

// winnerEnded reports whether a conflict NACK's request is sent again, in
// the same attempt: when one read of the named winner's status register
// shows its attempt has ended. An attempt that has ended is not concurrent
// and must not abort the requester; its lock only stands for a release
// still on its way, which a busy node did not check for. The resend names
// it (reqLock.Ended, set from *past) and the node revokes its locks first.
// A NACK naming *past again aborts: an ended irrevocable transaction blocks
// its node until its token release arrives. polled reports a read that
// showed the winner running, awaitWinner's first poll.
func (rt *Runtime) winnerEnded(resp *respLock, past *attemptRef) (ended, polled bool) {
	w := attemptRef{resp.NackOwner, resp.NackEpoch}
	if w.Core < 0 || w == *past {
		return false, false
	}
	rt.shard.WinnerChecks++
	if !rt.s.ended(rt.proc, rt.core, cm.Meta{Core: w.Core, TxID: w.TxID}) {
		return false, true
	}
	rt.shard.EndedResends++
	*past = w
	return true, false
}

// rpcLock acquires the read or write locks of keys, all owned by one DTM
// node, in one awaited round trip — every visible read, every eager write —
// and returns the keys granted once it is granted; a conflict NACK aborts the
// attempt, unless it names an attempt that has already ended: then the
// request goes to the same node again (winnerEnded). A NACK for stale
// placement (a migration moved or froze a stripe) is chased instead, for
// keys[0] alone: when it carries an owner hint, the epoch and owner the
// NACKing node saw steer the resend directly, saving the re-resolution
// against the directory; a hintless one re-resolves. The access is recorded
// once per logical acquisition — NACK-chasing resends must not inflate the
// stripe heat the adaptive policy reads.
func (rt *Runtime) rpcLock(tx *Tx, keys []mem.Addr, mode lockMode) []mem.Addr {
	rt.s.dir.Record(rt.cluster, keys...)
	node, epoch := rt.s.dir.Resolve(keys[0])
	past := attemptRef{Core: -1}
	for hop := 0; ; {
		req := rt.lockReq(tx.id, mode, epoch, keys)
		req.Ended = past
		id := req.ReqID // once sent, the node may consume and recycle req
		rt.carryOn(node, req)
		if lockSent != nil {
			lockSent(node, req)
		}
		rt.sendToNode(node, req)
		resp := rt.awaitOne(id)
		if resp == nil {
			// Deadline expired: the request or its response is lost. The
			// locks may nonetheless have been granted, so treat them as
			// held and let the abort's release burst cover them.
			rt.timeoutAbort(tx, keys, mode == lockWrite)
		}
		rt.dropRiding()
		if resp.OK {
			tx.recordGrantVers(keys, resp.Vers) // none except on a TL2 write grant
			putRespLock(resp)
			return keys
		}
		if !resp.Stale {
			if ended, polled := rt.winnerEnded(resp, &past); !ended {
				rt.conflictAbort(resp, polled)
			}
			putRespLock(resp)
			continue
		}
		hintOwner, hintEpoch := resp.NackOwner, resp.NackEpoch
		putRespLock(resp)
		if hop >= maxPlacementHops {
			rt.placementAbort()
		}
		hop++
		keys = keys[:1]
		if hintOwner >= 0 {
			node, epoch = hintOwner, hintEpoch
			rt.shard.StaleNackHints++
		} else {
			node, epoch = rt.s.dir.Resolve(keys[0])
		}
	}
}

// lockSent, when set by a test, sees every lock request rpcLock or
// scatterWriteLocks sends just before it is sent, with the release it
// carries.
var lockSent func(node int, req *reqLock)

// scatterWriteLocks sends every write-lock batch in one burst and gathers
// all responses, stamping every request with the batches' shared grouping
// epoch. Results are indexed by batch, in send order.
func (rt *Runtime) scatterWriteLocks(tx *Tx, epoch uint64, batches []nodeGroup) []*respLock {
	scStart := rt.proc.Now()
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseScatter), 0, 0)
	ids := rt.scatterIDs[:0]
	for _, b := range batches {
		req := rt.lockReq(tx.id, lockWrite, epoch, b.writes)
		req.Ended = b.past
		// Record the correlation ID before the handoff: once sent, the
		// node may consume and recycle the pooled request.
		ids = append(ids, req.ReqID)
		rt.carryOn(b.node, req)
		if lockSent != nil {
			lockSent(b.node, req)
		}
		rt.sendToNode(b.node, req)
	}
	rt.scatterIDs = ids
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseScatter), 0, 0)
	rt.scatterLat.Observe(rt.proc.Now() - scStart)
	gaStart := rt.proc.Now()
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseGather), 0, 0)
	out := append(rt.scatterResps[:0], make([]*respLock, len(ids))...)
	rt.scatterResps = out
	rt.awaitIDs = append(rt.awaitIDs[:0], ids...)
	rt.blockingHook()
	for remaining := len(ids); remaining > 0; {
		resp, timedOut := rt.recvRPC()
		if timedOut {
			rt.awaitIDs = rt.awaitIDs[:0]
			// Any batch — gathered or still in flight — may hold granted
			// locks whose responses we will never process; hand them all to
			// the abort's release burst (releasing an unheld lock is a no-op
			// at the node).
			var all []mem.Addr
			for _, b := range batches {
				all = append(all, b.writes...)
			}
			rt.timeoutAbort(tx, all, true)
		}
		if resp == nil {
			continue
		}
		for i, id := range ids {
			if id == resp.ReqID && out[i] == nil {
				out[i] = resp
				rt.awaitIDs[i] = 0 // consumed: a duplicate would not match
				remaining--
				break
			}
		}
	}
	rt.awaitIDs = rt.awaitIDs[:0]
	rt.dropRiding()
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseGather), 0, 0)
	rt.gatherLat.Observe(rt.proc.Now() - gaStart)
	// out is per-runtime scratch (rt.scatterResps): the caller must consume
	// every response before the next scatter reuses it.
	return out
}

// awaitOne blocks until the response with correlation ID id arrives — the
// allocation-free fast path for the one-outstanding-request case (every
// read lock, eager write locks). It returns nil when the per-RPC deadline
// expires (net backend only); the caller must then abort via timeoutAbort
// with its awaited keys.
func (rt *Runtime) awaitOne(id uint64) *respLock {
	rt.awaitIDs = append(rt.awaitIDs[:0], id)
	rt.blockingHook()
	for {
		resp, timedOut := rt.recvRPC()
		if timedOut || resp != nil {
			rt.awaitIDs = rt.awaitIDs[:0]
			return resp // nil on a timeout
		}
	}
}

// recvRPC takes the next message the RPC layer can currently process: an
// awaited lock response (returned) or, on a multitasked core, a request for
// the co-located DTM node (served inline, nil returned). Serving while
// awaiting is what keeps two cores gathering locks from each other's nodes
// from deadlocking. Messages that are neither — e.g. barrier traffic —
// stay queued for their own receive loops. On the net backend the wait is
// bounded by Config.RPCDeadline; timedOut reports an expiry (the awaited
// response may be lost to a broken connection and never arrive).
func (rt *Runtime) recvRPC() (resp *respLock, timedOut bool) {
	var m port.Msg
	if rt.deadlineRecv != nil {
		var ok bool
		m, ok = rt.deadlineRecv.RecvMatchTimeout(rt.awaitPred, rt.s.cfg.RPCDeadline)
		if !ok {
			return nil, true
		}
	} else {
		m = rt.proc.RecvMatch(rt.awaitPred)
	}
	if resp, ok := m.Payload.(*respLock); ok {
		return resp, false
	}
	rt.absorb(m, "awaiting a lock response")
	return nil, false
}

// absorb takes a message that is not what the core is waiting for: a barrier
// arrival is counted for Barrier to find, a request is served by the
// co-located DTM node (Multitask), anything else is a protocol bug.
func (rt *Runtime) absorb(m port.Msg, where string) {
	if b, ok := m.Payload.(barrierMsg); ok {
		rt.barrierSeen[b.Epoch]++
		return
	}
	if r, ok := m.Payload.(*respLock); ok && rt.deadlineRecv != nil {
		// The late answer to an RPC that timed out: the abort's release
		// burst already covers whatever it granted.
		putRespLock(r)
		return
	}
	if rt.node == nil || !rt.node.handle(rt.proc, m) {
		panic(fmt.Sprintf("core: app%d unexpected message %T %s", rt.core, m.Payload, where))
	}
}

// timeoutAbort aborts the attempt after an awaited lock RPC exceeded its
// deadline. The awaited locks' grant state is unknowable — the request or
// the response may be the lost frame — so the keys are conservatively
// recorded as held before the abort unwinds: abortCleanup's release burst
// then frees whatever the nodes actually granted, and a release for a lock
// never granted is a no-op. Leaking the lock instead would block its object
// until the run's drain. A release the lost request carried is drafted
// again from its lock set and sent on its own, for the same reason.
func (rt *Runtime) timeoutAbort(tx *Tx, keys []mem.Addr, write bool) {
	rt.shard.RPCTimeouts++
	rt.riding = rt.sendReleases(rt.draftAll(rt.riding), &rt.shard.ReleaseMsgs)
	if write {
		tx.wlocked = append(tx.wlocked, keys...)
	} else {
		for _, k := range keys {
			tx.held.put(k) // a held key keeps its place
		}
	}
	panic(rt.signal(abortSignal{reason: trace.ReasonTimeout}))
}
