package core

import (
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
// never deadlock). A node grants the token once its lock table has drained;
// while a token is held or requested, the node rejects new lock
// acquisitions, which aborts optimistic transactions into their usual retry
// path and guarantees the drain terminates. Once all tokens are held the
// body runs pessimistically with direct shared-memory access, then the
// tokens are released.

// reqExclusive asks a DTM node for its exclusivity token.
type reqExclusive struct {
	Core  int
	TxID  uint64
	Reply port.Port
}

func (r *reqExclusive) bytes() int { return msgHeaderBytes + 16 }
func (*reqExclusive) dtmRequest()  {}

// respExclusive grants the token.
type respExclusive struct{}

// relExclusive returns the token (fire-and-forget).
type relExclusive struct {
	Core int
	TxID uint64
}

func (r *relExclusive) bytes() int { return msgHeaderBytes + 16 }
func (*relExclusive) dtmRequest()  {}

// exclState is a DTM node's exclusivity bookkeeping.
type exclState struct {
	held    bool
	owner   int
	ownerTx uint64
	queue   []*reqExclusive
}

// blocked reports whether ordinary lock traffic must be rejected: either a
// token is held or someone is waiting for the table to drain.
func (e *exclState) blocked() bool { return e.held || len(e.queue) > 0 }

// handleExclusive enqueues or immediately grants a token request.
func (n *dtmNode) handleExclusive(p port.Port, r *reqExclusive) {
	c := n.s.cfg.Costs
	p.Advance(n.s.compute(c.SvcBase))
	n.excl.queue = append(n.excl.queue, r)
	n.tryGrantExclusive(p)
}

// handleExclusiveRelease returns the token and hands it to the next waiter.
func (n *dtmNode) handleExclusiveRelease(p port.Port, r *relExclusive) {
	c := n.s.cfg.Costs
	p.Advance(n.s.compute(c.SvcBase))
	if !n.excl.held || n.excl.owner != r.Core || n.excl.ownerTx != r.TxID {
		return // stale release
	}
	n.excl.held = false
	n.tryGrantExclusive(p)
}

// tryGrantExclusive grants the head waiter once the lock table is empty.
func (n *dtmNode) tryGrantExclusive(p port.Port) {
	if n.excl.held || len(n.excl.queue) == 0 || n.table.Size() != 0 {
		return
	}
	r := n.excl.queue[0]
	n.excl.queue = n.excl.queue[1:]
	n.excl.held = true
	n.excl.owner = r.Core
	n.excl.ownerTx = r.TxID
	n.shard.Responses++
	n.s.send(&n.shard, n.rec, p, n.core, r.Reply, r.Core, &respExclusive{}, msgRespBytes)
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
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.TxBegin))

	// Acquire every node's token in ascending node order (global order =>
	// no deadlock between two irrevocable transactions).
	for ni := range rt.s.nodes {
		rt.sendToNode(ni, &reqExclusive{Core: rt.core, TxID: id, Reply: rt.proc})
		rt.awaitExclusiveGrant()
	}
	fn(&Irrevocable{rt: rt, id: id})
	// Token-release burst: fire-and-forget to every node, coalesced like
	// any other burst when the message plane coalesces (one payload per
	// node here, so the win is uniformity, not merging).
	for ni := range rt.s.nodes {
		rt.burstToNode(ni, &relExclusive{Core: rt.core, TxID: id})
	}
	rt.flushOut()
	rt.s.Regs.SetStatusLocal(rt.core, id, mem.TxCommitted)
	rt.stats.Commits++
	rt.shard.Irrevocables++
}

// awaitExclusiveGrant waits for one respExclusive, serving co-located DTM
// requests under Multitask deployment (which keeps the drain making
// progress on this core's own node).
func (rt *Runtime) awaitExclusiveGrant() {
	for {
		m := rt.proc.Recv()
		if _, granted := m.Payload.(*respExclusive); granted {
			return
		}
		rt.absorb(m, "awaiting exclusivity", true)
	}
}
