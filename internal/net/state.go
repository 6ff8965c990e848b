package net

import (
	"fmt"
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

// stateCall sends one state RPC to rank and blocks for the response.
func (e *Engine) stateCall(rank int, build func(enc *wire.Enc)) []byte {
	corr := e.corr.Add(1)
	ch := make(chan []byte, 1)
	e.pendMu.Lock()
	e.pend[corr] = ch
	e.pendMu.Unlock()
	enc := wire.GetEnc()
	enc.U64(corr)
	build(enc)
	err := e.links[rank].write(frStateReq, enc.Bytes())
	wire.PutEnc(enc)
	if err != nil {
		e.pendMu.Lock()
		delete(e.pend, corr)
		e.pendMu.Unlock()
		panic(fmt.Errorf("net: rank %d: state RPC to rank %d: %w", e.cfg.Rank, rank, err))
	}
	t := time.NewTimer(e.cfg.StateTimeout)
	defer t.Stop()
	select {
	case resp := <-ch:
		return resp
	case <-t.C:
		e.pendMu.Lock()
		delete(e.pend, corr)
		e.pendMu.Unlock()
		panic(fmt.Errorf("net: rank %d: state RPC to rank %d timed out after %v",
			e.cfg.Rank, rank, e.cfg.StateTimeout))
	case <-e.Quit():
		// The engine is tearing down; unwind like any blocked receive.
		// (Workers are all done before Shutdown, so a state call here can
		// only belong to a goroutine being killed anyway.)
		port.Unwind()
		return nil
	}
}

// serveState executes one state request against the locally-owned state and
// writes the response on the same link.
func (e *Engine) serveState(l *link, body []byte) {
	d := wire.NewDec(body, nil)
	corr := d.U64()
	op := d.U8()
	resp := wire.GetEnc()
	defer wire.PutEnc(resp) // l.write copies the frame out before returning
	resp.U64(corr)
	st := e.st
	if st.mem == nil {
		e.Fail(fmt.Errorf("net: rank %d: state RPC before BindState", e.cfg.Rank))
		return
	}
	switch op {
	case opReadRaw:
		resp.U64(st.mem.ReadRaw(mem.Addr(d.U64())))
	case opWriteRaw:
		a, v := mem.Addr(d.U64()), d.U64()
		st.mem.WriteRaw(a, v)
	case opReadBatchRaw:
		base, n := mem.Addr(d.U64()), d.Int()
		if n < 0 || n > maxReadBatch {
			e.Fail(fmt.Errorf("net: rank %d: state read of %d words from rank %d exceeds one frame", e.cfg.Rank, n, l.peer))
			return
		}
		if d.Err() == nil {
			resp.U64s(st.mem.ReadBatchRaw(base, n))
		}
	case opWriteBatchRaw:
		as := d.U64s()
		vs := d.U64s()
		if d.Err() == nil {
			addrs := make([]mem.Addr, len(as))
			for i, a := range as {
				addrs[i] = mem.Addr(a)
			}
			st.mem.WriteBatchRaw(addrs, vs)
		}
	case opAlloc:
		n, mc := d.Int(), d.Int()
		if d.Err() == nil {
			resp.U64(uint64(st.mem.Alloc(n, mc)))
		}
	case opCAS:
		owner, txID := d.Int(), d.U64()
		from, to := mem.TxState(d.U8()), mem.TxState(d.U8())
		if d.Err() == nil {
			sw, obsTx, obsState := st.regs.CASStatusObserveRaw(owner, txID, from, to)
			resp.Bool(sw)
			resp.U64(obsTx)
			resp.U8(uint8(obsState))
		}
	case opTAS:
		reg := d.Int()
		if d.Err() == nil {
			resp.Bool(st.regs.TASRaw(reg))
		}
	case opTASRelease:
		reg := d.Int()
		if d.Err() == nil {
			st.regs.TASReleaseRaw(reg)
		}
	default:
		e.Fail(fmt.Errorf("net: rank %d: unknown state op %d", e.cfg.Rank, op))
		return
	}
	if err := d.Err(); err != nil {
		e.Fail(fmt.Errorf("net: rank %d: bad state request: %w", e.cfg.Rank, err))
		return
	}
	if err := l.write(frStateResp, resp.Bytes()); err != nil {
		// The requester's StateTimeout will surface the loss.
		e.Drops.Add(1)
	}
}

// memRemote forwards word storage to rank 0 (mem.Remote).
type memRemote struct{ e *Engine }

func (m memRemote) ReadRaw(addr mem.Addr) uint64 {
	resp := m.e.stateCall(0, func(enc *wire.Enc) {
		enc.U8(opReadRaw)
		enc.U64(uint64(addr))
	})
	return wire.NewDec(resp, nil).U64()
}

func (m memRemote) WriteRaw(addr mem.Addr, v uint64) {
	m.e.stateCall(0, func(enc *wire.Enc) {
		enc.U8(opWriteRaw)
		enc.U64(uint64(addr))
		enc.U64(v)
	})
}

func (m memRemote) ReadBatchRaw(base mem.Addr, n int) []uint64 {
	resp := m.e.stateCall(0, func(enc *wire.Enc) {
		enc.U8(opReadBatchRaw)
		enc.U64(uint64(base))
		enc.Int(n)
	})
	vs := wire.NewDec(resp, nil).U64s()
	if vs == nil {
		vs = make([]uint64, n)
	}
	return vs
}

func (m memRemote) WriteBatchRaw(addrs []mem.Addr, vals []uint64) {
	m.e.stateCall(0, func(enc *wire.Enc) {
		enc.U8(opWriteBatchRaw)
		enc.U32(uint32(len(addrs)))
		for _, a := range addrs {
			enc.U64(uint64(a))
		}
		enc.U64s(vals)
	})
}

func (m memRemote) Alloc(n, mc int) mem.Addr {
	resp := m.e.stateCall(0, func(enc *wire.Enc) {
		enc.U8(opAlloc)
		enc.Int(n)
		enc.Int(mc)
	})
	return mem.Addr(wire.NewDec(resp, nil).U64())
}

// regRemote forwards register operations to the rank owning the target core
// (mem.RemoteRegs).
type regRemote struct{ e *Engine }

func (r regRemote) CASStatus(owner int, txID uint64, from, to mem.TxState) (bool, uint64, mem.TxState) {
	resp := r.e.stateCall(r.e.st.rankOf(owner), func(enc *wire.Enc) {
		enc.U8(opCAS)
		enc.Int(owner)
		enc.U64(txID)
		enc.U8(uint8(from))
		enc.U8(uint8(to))
	})
	d := wire.NewDec(resp, nil)
	return d.Bool(), d.U64(), mem.TxState(d.U8())
}

func (r regRemote) TAS(reg int) bool {
	resp := r.e.stateCall(r.e.st.rankOf(reg), func(enc *wire.Enc) {
		enc.U8(opTAS)
		enc.Int(reg)
	})
	return wire.NewDec(resp, nil).Bool()
}

func (r regRemote) TASRelease(reg int) {
	r.e.stateCall(r.e.st.rankOf(reg), func(enc *wire.Enc) {
		enc.U8(opTASRelease)
		enc.Int(reg)
	})
}
