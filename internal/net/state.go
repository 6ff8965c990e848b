package net

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/wire"
)

// The state plane: synchronous, correlation-ID-tagged RPCs that move raw
// word and register operations to the rank owning the state. Memory words
// and allocation bump pointers are homed on rank 0; each core's status/TAS
// registers on the rank hosting the core. The model costs (controller
// queueing, NoC distance, remote-atomic latency) were already charged
// locally by internal/mem before the forward — only the raw apply crosses
// the wire.
//
// Every operation is synchronous, writes included: a commit's write-back
// must be applied at the owner before the committer releases its locks, or
// the next lock holder could read the pre-write words through a different
// connection. Connection readers execute requests inline (pure map/array
// operations under the owner's mutex — no nested RPCs, so no deadlock).

// State-RPC opcodes.
const (
	opReadRaw uint8 = iota + 1
	opWriteRaw
	opReadBatchRaw
	opWriteBatchRaw
	opAlloc
	opCAS
	opTAS
	opTASRelease
)

// maxReadBatch is the most words one opReadBatchRaw response can carry in a
// frame (correlation ID and count ahead of them). The requested count comes
// off the wire and sizes an allocation, so it is checked against this
// before it is trusted.
const maxReadBatch = (wire.MaxFrame - 1 - 8 - 4) / 8

// stateHooks is the engine's view of the locally-owned state.
type stateHooks struct {
	mem    *mem.Memory
	regs   *mem.Registers
	rankOf func(core int) int
}

// BindState wires the replica's memory and registers into the cross-process
// state plane: non-zero ranks forward word storage to rank 0, and every
// rank forwards register operations to the rank owning the target core.
// Call after all raw setup writes (they stay local and replicated) and
// before Start releases any worker.
func (e *Engine) BindState(m *mem.Memory, r *mem.Registers, rankOf func(core int) int) {
	e.st = stateHooks{mem: m, regs: r, rankOf: rankOf}
	if e.cfg.Rank != 0 {
		m.SetRemote(memRemote{e})
	}
	r.SetRemote(func(core int) bool { return rankOf(core) == e.cfg.Rank }, regRemote{e})
}

// stateCall is the slot of one in-flight state RPC. newCall draws it from
// callPool, done hands it back once the caller has decoded the reply. A call
// that timed out or unwound never reaches done: the connection reader may be
// completing it at that very moment (a token on its way into reply), so its
// slot is left to the garbage collector.
type stateCall struct {
	corr  uint64
	req   *wire.Enc     // correlation ID, opcode, then the caller's arguments
	reply chan struct{} // buffered: completeCall signals after filling resp
	resp  []byte        // the response behind its correlation ID
	dec   wire.Dec      // over resp, for the caller
	timer *time.Timer   // StateTimeout; stopped while the slot is pooled
}

var callPool = sync.Pool{New: func() any {
	c := &stateCall{reply: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	c.timer.Stop()
	return c
}}

// newCall starts a state RPC: the caller appends op's arguments to req.
func (e *Engine) newCall(op uint8) *stateCall {
	c := callPool.Get().(*stateCall)
	c.corr = e.corr.Add(1)
	c.req = wire.GetEnc()
	c.req.U64(c.corr)
	c.req.U8(op)
	return c
}

// StateRPCs returns how many state RPCs this rank has issued: every call
// takes the next correlation ID.
func (e *Engine) StateRPCs() uint64 { return e.corr.Load() }

// done recycles a completed call's slot; its decoder dies with it.
func (c *stateCall) done() { callPool.Put(c) }

// roundTrip sends c's request to rank and blocks for the response, which it
// returns as a decoder valid until c.done.
func (e *Engine) roundTrip(rank int, c *stateCall) *wire.Dec {
	e.pendMu.Lock()
	e.pend[c.corr] = c
	e.pendMu.Unlock()
	err := e.links[rank].write(frStateReq, c.req)
	wire.PutEnc(c.req)
	if err == nil {
		// go.mod's go 1.24 gives Reset and Stop their post-1.23 meaning: no
		// stale expiry can be received from timer.C after either returns.
		c.timer.Reset(e.cfg.StateTimeout)
		select {
		case <-c.reply:
			c.timer.Stop()
			c.dec.Reset(c.resp)
			return &c.dec
		case <-c.timer.C:
			err = fmt.Errorf("timed out after %v", e.cfg.StateTimeout)
		case <-e.Quit():
			// The engine is tearing down; unwind like any blocked receive.
			// (Workers are all done before Shutdown, so a state call here
			// can only belong to a goroutine being killed anyway.)
		}
	}
	// Nobody waits for this call any more, and its slot is not recycled.
	e.pendMu.Lock()
	delete(e.pend, c.corr)
	e.pendMu.Unlock()
	if err == nil {
		port.Unwind()
	}
	panic(fmt.Errorf("net: rank %d: state RPC to rank %d: %w", e.cfg.Rank, rank, err))
}

// completeCall hands a response to the call waiting under corr, if one still
// is. resp is the connection reader's borrowed frame body, so it is copied
// into the slot; under pendMu, which orders the copy against a caller that
// is giving up.
func (e *Engine) completeCall(corr uint64, resp []byte) {
	e.pendMu.Lock()
	c := e.pend[corr]
	if c != nil {
		delete(e.pend, corr)
		c.resp = append(c.resp[:0], resp...)
	}
	e.pendMu.Unlock()
	if c != nil {
		c.reply <- struct{}{}
	}
}

// serveState executes one state request against the locally-owned state and
// writes the response on the same link. A request that is truncated, or names
// what this rank cannot apply (a count no frame could carry, a write-back of
// unequal halves, a core hosted elsewhere), faults the run untouched.
func (r *connReader) serveState(body []byte) {
	e, st := r.l.eng, r.l.eng.st
	d := wire.NewDec(body, nil)
	corr, op := d.U64(), d.U8()
	resp := wire.GetEnc()
	defer wire.PutEnc(resp)
	resp.U64(corr)
	if st.mem == nil {
		e.Fail(fmt.Errorf("net: rank %d: state RPC before BindState", e.cfg.Rank))
		return
	}
	// may reports whether to apply a request: it decoded whole and ok holds.
	valid := true
	may := func(ok bool) bool {
		valid = valid && ok
		return ok && d.Err() == nil
	}
	hosts := func(c int) bool { return 0 <= c && c < st.regs.Cores() && st.rankOf(c) == e.cfg.Rank }
	switch op {
	case opReadRaw:
		resp.U64(st.mem.ReadRaw(mem.Addr(d.U64())))
	case opWriteRaw:
		if a, v := mem.Addr(d.U64()), d.U64(); d.Err() == nil {
			st.mem.WriteRaw(a, v)
		}
	case opReadBatchRaw:
		if base, n := mem.Addr(d.U64()), d.Int(); may(0 <= n && n <= maxReadBatch) {
			if cap(r.words) < n {
				r.words = make([]uint64, n)
			}
			st.mem.ReadBatchRaw(base, r.words[:n])
			resp.U64s(r.words[:n])
		}
	case opWriteBatchRaw:
		r.addrs, r.words = r.addrs[:0], r.words[:0]
		for n := d.Count(8); n > 0; n-- {
			r.addrs = append(r.addrs, mem.Addr(d.U64()))
		}
		for n := d.Count(8); n > 0; n-- {
			r.words = append(r.words, d.U64())
		}
		if may(len(r.addrs) == len(r.words)) {
			st.mem.WriteBatchRaw(r.addrs, r.words)
		}
	case opAlloc:
		if n, mc := d.Int(), d.Int(); may(n > 0 && mc >= 0) {
			resp.U64(uint64(st.mem.Alloc(n, mc)))
		}
	case opCAS:
		owner, txID := d.Int(), d.U64()
		if from, to := mem.TxState(d.U8()), mem.TxState(d.U8()); may(hosts(owner)) {
			sw, obsTx, obsState := st.regs.CASStatusObserveRaw(owner, txID, from, to)
			resp.Bool(sw)
			resp.U64(obsTx)
			resp.U8(uint8(obsState))
		}
	case opTAS:
		if reg := d.Int(); may(hosts(reg)) {
			resp.Bool(st.regs.TASRaw(reg))
		}
	case opTASRelease:
		if reg := d.Int(); may(hosts(reg)) {
			st.regs.TASReleaseRaw(reg)
		}
	default:
		valid = false
	}
	if err := d.Err(); err != nil { // the zero values of failed reads are not the peer's
		e.Fail(fmt.Errorf("net: rank %d: bad state request from rank %d: %w", e.cfg.Rank, r.l.peer, err))
	} else if !valid {
		e.Fail(fmt.Errorf("net: rank %d: state request from rank %d (op %d) names what this rank cannot apply", e.cfg.Rank, r.l.peer, op))
	} else if r.l.write(frStateResp, resp) != nil {
		e.Drops.Add(1) // the requester's StateTimeout will surface the loss
	}
}

// memRemote forwards word storage to rank 0 (mem.Remote).
type memRemote struct{ e *Engine }

func (m memRemote) ReadRaw(addr mem.Addr) uint64 {
	c := m.e.newCall(opReadRaw)
	c.req.U64(uint64(addr))
	v := m.e.roundTrip(0, c).U64()
	c.done()
	return v
}

func (m memRemote) WriteRaw(addr mem.Addr, v uint64) {
	c := m.e.newCall(opWriteRaw)
	c.req.U64(uint64(addr))
	c.req.U64(v)
	m.e.roundTrip(0, c)
	c.done()
}

func (m memRemote) ReadBatchRaw(base mem.Addr, dst []uint64) {
	c := m.e.newCall(opReadBatchRaw)
	c.req.U64(uint64(base))
	c.req.Int(len(dst))
	d := m.e.roundTrip(0, c)
	if n := d.Count(8); n != len(dst) {
		panic(fmt.Errorf("net: rank %d: state read of %d words answered with %d (%v)", m.e.cfg.Rank, len(dst), n, d.Err()))
	}
	for i := range dst {
		dst[i] = d.U64()
	}
	c.done()
}

func (m memRemote) WriteBatchRaw(addrs []mem.Addr, vals []uint64) {
	c := m.e.newCall(opWriteBatchRaw)
	c.req.U32(uint32(len(addrs)))
	for _, a := range addrs {
		c.req.U64(uint64(a))
	}
	c.req.U64s(vals)
	m.e.roundTrip(0, c)
	c.done()
}

func (m memRemote) Alloc(n, mc int) mem.Addr {
	c := m.e.newCall(opAlloc)
	c.req.Int(n)
	c.req.Int(mc)
	a := mem.Addr(m.e.roundTrip(0, c).U64())
	c.done()
	return a
}

// regRemote forwards register operations to the rank owning the target core
// (mem.RemoteRegs).
type regRemote struct{ e *Engine }

func (r regRemote) CASStatus(owner int, txID uint64, from, to mem.TxState) (bool, uint64, mem.TxState) {
	c := r.e.newCall(opCAS)
	c.req.Int(owner)
	c.req.U64(txID)
	c.req.U8(uint8(from))
	c.req.U8(uint8(to))
	d := r.e.roundTrip(r.e.st.rankOf(owner), c)
	swapped, obsTx, obsState := d.Bool(), d.U64(), mem.TxState(d.U8())
	c.done()
	return swapped, obsTx, obsState
}

func (r regRemote) TAS(reg int) bool {
	c := r.e.newCall(opTAS)
	c.req.Int(reg)
	won := r.e.roundTrip(r.e.st.rankOf(reg), c).Bool()
	c.done()
	return won
}

func (r regRemote) TASRelease(reg int) {
	c := r.e.newCall(opTASRelease)
	c.req.Int(reg)
	r.e.roundTrip(r.e.st.rankOf(reg), c)
	c.done()
}
