package core

import (
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
)

// Irrevocable transactions are the extension sketched in §2 of the paper:
// "one could extend our code with irrevocable transactions that ask
// exclusive accesses to all responsible nodes before executing
// pessimistically". They permit side effects (I/O, system calls) inside a
// transaction because the transaction can never abort.
//
// Protocol: the core requests an exclusivity token from every DTM node in
// ascending node order (a global order, so two irrevocable transactions can
// never deadlock). A node grants the token once no running attempt holds a
// lock in its table (drainFinished); while a token is held or requested,
// the node rejects new lock acquisitions, which aborts optimistic
// transactions into their usual retry path and guarantees the drain
// terminates. Once all tokens are held the body runs pessimistically with
// direct shared-memory access, then the tokens are released. The token
// travels in the lock vocabulary: a reqLock in exclusive mode asks for it, a
// respLock grants it, and a relLocks with Exclusive set returns it.

// exclState is a DTM node's exclusivity bookkeeping.
type exclState struct {
	held    bool
	owner   int
	ownerTx uint64
	queue   []*reqLock // token requests (lockExclusive), in arrival order
}

// blocked reports whether ordinary lock traffic must be rejected: either a
// token is held or someone is waiting for the table to drain.
func (e *exclState) blocked() bool { return e.held || len(e.queue) > 0 }

// first names the irrevocable transaction a blocked node rejects lock
// traffic for: the token's holder, else the head waiter. Its status register
// shows Committing until it ends.
func (e *exclState) first() cm.Meta {
	if e.held {
		return cm.Meta{Core: e.owner, TxID: e.ownerTx}
	}
	return e.queue[0].Meta
}

// tryGrantExclusive grants the head waiter once the lock table holds no lock
// of a running attempt, and recycles its request.
func (n *dtmNode) tryGrantExclusive(p port.Port) {
	if n.excl.held || len(n.excl.queue) == 0 || !n.drainFinished(p, n.excl.queue[0].Meta) {
		return
	}
	r := n.excl.queue[0]
	n.excl.queue = n.excl.queue[1:]
	n.excl.held = true
	n.excl.owner = r.Meta.Core
	n.excl.ownerTx = r.Meta.TxID
	n.shard.Responses++
	resp := getRespLock()
	resp.ReqID, resp.OK = r.ReqID, true
	n.s.send(&n.shard, n.rec, p, n.core, r.Reply, r.ReplyTo, resp, respBytes(resp))
	putLockReq(r)
}

// drainFinished reports whether the lock table is empty once the locks of
// finished attempts are revoked for requester by, key by key in address
// order, stopping at the first key a running attempt holds. A core keeps
// its last attempt's releases until its next lock request or wait
// (Runtime.carry), and a token must not wait for them.
func (n *dtmNode) drainFinished(p port.Port, by cm.Meta) bool {
	if n.table.Size() == 0 {
		return true
	}
	for _, a := range n.lockedKeys(func(mem.Addr) bool { return true }) {
		if !n.clearFinished(p, a, by) {
			return false
		}
	}
	return n.table.Size() == 0
}

// Irrevocable is the handle passed to an irrevocable transaction body. Its
// accesses go straight to shared memory — the exclusivity tokens make that
// safe — and, because the transaction cannot abort, the body may perform
// arbitrary side effects.
type Irrevocable struct {
	rt *Runtime
	id uint64
}

// Read returns the word at addr.
func (ir *Irrevocable) Read(addr mem.Addr) uint64 {
	return ir.rt.s.Mem.Read(ir.rt.proc, ir.rt.core, addr)
}

// ReadN returns the n-word object at base.
func (ir *Irrevocable) ReadN(base mem.Addr, n int) []uint64 {
	return ir.rt.s.Mem.ReadBatch(ir.rt.proc, ir.rt.core, base, n)
}

// Write stores v at addr immediately (write-through; there is no abort).
func (ir *Irrevocable) Write(addr mem.Addr, v uint64) {
	ir.rt.s.Mem.Write(ir.rt.proc, ir.rt.core, addr, v)
}

// WriteN stores the n-word object vals at base immediately (one batched
// write-through access; there is no abort).
func (ir *Irrevocable) WriteN(base mem.Addr, vals []uint64) {
	addrs := make([]mem.Addr, len(vals))
	for i := range addrs {
		addrs[i] = base + mem.Addr(i)
	}
	ir.rt.s.Mem.WriteBatch(ir.rt.proc, ir.rt.core, addrs, vals)
}

// RunIrrevocable executes fn as an irrevocable transaction: it blocks until
// every DTM node has granted exclusive access, runs fn pessimistically, and
// releases the tokens. It never aborts and therefore runs fn exactly once.
//
// Irrevocability is a visible-protocol facility: the exclusivity tokens
// stop transactions at the DTM nodes, but a TL2 reader never consults a
// node, so it could observe an irrevocable transaction's direct writes
// mid-flight. RunIrrevocable therefore panics under Protocol=tl2.
func (rt *Runtime) RunIrrevocable(fn func(*Irrevocable)) {
	if !rt.s.proto.readsHoldLocks() {
		panic("core: irrevocable transactions require the visible protocol (tl2 readers bypass the DTM exclusivity tokens)")
	}
	rt.nextTxID++
	id := rt.nextTxID
	// The status register stays in Committing: an irrevocable transaction
	// is never abortable.
	rt.s.Regs.SetStatusLocal(rt.core, id, mem.TxCommitting)
	rt.proc.Advance(rt.s.compute(costs.TxBegin))

	// Acquire every node's token in ascending node order (global order =>
	// no deadlock between two irrevocable transactions), after this core's
	// own releases.
	rt.sendCarry()
	for ni := range rt.s.nodes {
		req := rt.lockReq(id, lockExclusive, 0, nil)
		reqID := req.ReqID // the node recycles req once it grants
		rt.sendToNode(ni, req)
		// The grant waits for the node's table to drain, which no deadline
		// bounds: an expired wait is simply re-armed.
		resp := rt.awaitOne(reqID)
		for resp == nil {
			resp = rt.awaitOne(reqID)
		}
		putRespLock(resp)
	}
	fn(&Irrevocable{rt: rt, id: id})
	// Token-release burst: fire-and-forget to every node.
	for ni := range rt.s.nodes {
		rel := getRelLocks()
		rel.Core, rel.TxID, rel.Exclusive = rt.core, id, true
		rt.sendToNode(ni, rel)
	}
	rt.s.Regs.SetStatusLocal(rt.core, id, mem.TxCommitted)
	rt.stats.Commits++
	rt.shard.Irrevocables++
	rt.s.snap.AddCommit()
}
