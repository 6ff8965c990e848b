package net

import (
	"bytes"
	"fmt"
	"io"
	"math"
	gonet "net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/wire"
)

// stateOwner is an engine that owns state but was never started: rank 0 of
// two with memory and registers bound, every core hosted here. serveState
// runs against it directly; a refused request writes no response.
func stateOwner(t testing.TB) *Engine {
	t.Helper()
	e, err := New(Config{Rank: 0, Ranks: 2, Addrs: []string{"unix:/unused0", "unix:/unused1"}})
	if err != nil {
		t.Fatal(err)
	}
	bindFreshState(e)
	return e
}

var sccPlatform = noc.SCC(0)

// bindFreshState gives e zeroed memory and registers to own.
func bindFreshState(e *Engine) {
	e.BindState(mem.New(&sccPlatform), mem.NewRegisters(&sccPlatform), func(int) int { return 0 })
}

// stateReq encodes one state request: correlation ID 1, op, then args.
func stateReq(op uint8, args func(req *wire.Enc)) []byte {
	req := wire.NewEnc(nil)
	req.U64(1)
	req.U8(op)
	args(req)
	return req.Bytes()
}

// TestServeStateBoundsReadBatch: the word count of a batch read comes off
// the wire and sizes an allocation, so a count no response frame could carry
// (or a negative one) must fault the run before anything is allocated for
// it. The engine is never started: a rejected request writes no response.
func TestServeStateBoundsReadBatch(t *testing.T) {
	for _, n := range []int{maxReadBatch + 1, math.MaxInt64, -1} {
		e := stateOwner(t)
		(&connReader{l: e.links[1]}).serveState(stateReq(opReadBatchRaw, func(req *wire.Enc) {
			req.U64(0)
			req.Int(n)
		}))
		if e.Fault() == nil {
			t.Errorf("batch read of %d words was served", n)
		}
	}
}

// TestServeStateRefusesWhatItCannotApply: a well-framed request naming
// something the owner's arrays do not have faults the run; before, each of
// these panicked inside the connection reader and took the process down.
func TestServeStateRefusesWhatItCannotApply(t *testing.T) {
	for name, body := range map[string][]byte{
		"write-back with more addresses than values": stateReq(opWriteBatchRaw, func(req *wire.Enc) {
			req.U64s([]uint64{8, 16, 24})
			req.U64s([]uint64{1})
		}),
		"allocation of no words":          stateReq(opAlloc, func(req *wire.Enc) { req.Int(0); req.Int(0) }),
		"allocation at controller -1":     stateReq(opAlloc, func(req *wire.Enc) { req.Int(4); req.Int(-1) }),
		"CAS on a core that is not there": stateReq(opCAS, func(req *wire.Enc) { req.Int(1 << 40); req.U64(1); req.U8(0); req.U8(1) }),
		"TAS on core -1":                  stateReq(opTAS, func(req *wire.Enc) { req.Int(-1) }),
		"TAS release on core -1":          stateReq(opTASRelease, func(req *wire.Enc) { req.Int(-1) }),
	} {
		e := stateOwner(t)
		(&connReader{l: e.links[1]}).serveState(body)
		if e.Fault() == nil {
			t.Errorf("%s was served", name)
		}
	}
}

// discardLink gives e's link to rank 1 a connection whose far end reads and
// discards, so serveState's responses have somewhere to go.
func discardLink(t testing.TB, e *Engine) {
	t.Helper()
	near, far := gonet.Pipe()
	go io.Copy(io.Discard, far)
	e.links[1].conn = near
	t.Cleanup(func() { near.Close(); far.Close() })
}

// FuzzServeState feeds arbitrary bytes to the state plane's request decoder,
// the one decoder behind a socket that runs inside the owner of the state.
// Properties: it never panics, and what it allocates is bounded by the bytes
// it received — a few words per address/value pair (scratch, and a 4 KiB
// memory page a written word may materialise) — except for a batch read,
// whose response is bounded by the count it validated against one frame.
func FuzzServeState(f *testing.F) {
	valid := [][]byte{
		stateReq(opReadRaw, func(req *wire.Enc) { req.U64(64) }),
		stateReq(opWriteRaw, func(req *wire.Enc) { req.U64(64); req.U64(7) }),
		stateReq(opReadBatchRaw, func(req *wire.Enc) { req.U64(64); req.Int(4) }),
		stateReq(opWriteBatchRaw, func(req *wire.Enc) { req.U64s([]uint64{64, 65}); req.U64s([]uint64{1, 2}) }),
		stateReq(opAlloc, func(req *wire.Enc) { req.Int(8); req.Int(1) }),
		stateReq(opCAS, func(req *wire.Enc) { req.Int(3); req.U64(9); req.U8(0); req.U8(1) }),
		stateReq(opTAS, func(req *wire.Enc) { req.Int(3) }),
		stateReq(opTASRelease, func(req *wire.Enc) { req.Int(3) }),
	}
	for _, b := range valid {
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated in its last argument
		f.Add(b[:9])        // no arguments at all
	}
	f.Add(stateReq(opWriteBatchRaw, func(req *wire.Enc) { req.U64s([]uint64{64, 65, 66}); req.U64s([]uint64{1}) }))
	f.Add(stateReq(opWriteBatchRaw, func(req *wire.Enc) { req.U32(math.MaxUint32); req.U64(64) })) // count the bytes cannot back
	f.Add(stateReq(opReadBatchRaw, func(req *wire.Enc) { req.U64(0); req.Int(maxReadBatch + 1) }))
	f.Add(stateReq(opCAS, func(req *wire.Enc) { req.Int(-1); req.U64(9); req.U8(0); req.U8(1) }))
	f.Add(stateReq(opAlloc, func(req *wire.Enc) { req.Int(-8); req.Int(-1) }))
	f.Add(stateReq(99, func(*wire.Enc) {}))
	f.Add([]byte{1, 2, 3})

	e := stateOwner(f)
	discardLink(f, e)
	f.Fuzz(func(t *testing.T, body []byte) {
		budget := uint64(16<<10 + (32+8*512)*(len(body)/16+1))
		d := wire.NewDec(body, nil)
		if _, op, _, n := d.U64(), d.U8(), d.U64(), d.Int(); op == opReadBatchRaw && d.Err() == nil && 0 < n && n <= maxReadBatch {
			budget += 24 * uint64(n) // the scratch words and the response that carries them
		}
		// Fresh state and scratch: no page or buffer an earlier input left
		// behind hides this one's allocations (or piles up over a long run).
		bindFreshState(e)
		r := &connReader{l: e.links[1]}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.serveState(body)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("serveState allocated %d bytes for a %d-byte request, budget %d", got, len(body), budget)
		}
	})
}

// TestCtrlAndStateRespSurviveBufferReuse: the connection reader lends every
// handler the same buffer, so the two handlers that keep bytes — a control
// payload for its barrier, a state response for its caller — must have
// copied them. A STATS payload and a state response are read back intact
// after a thousand later frames went through the reader.
func TestCtrlAndStateRespSurviveBufferReuse(t *testing.T) {
	e := stateOwner(t)
	near, far := gonet.Pipe()
	defer near.Close()
	defer far.Close()
	go e.readLoop(e.links[1], far)

	const corr = 77
	call := callPool.Get().(*stateCall)
	e.pendMu.Lock()
	e.pend[corr] = call
	e.pendMu.Unlock()

	stats := bytes.Repeat([]byte("stats"), 40)
	answer := bytes.Repeat([]byte{0xa5}, 24)
	write := func(kind uint8, parts ...[]byte) {
		t.Helper()
		if err := wire.WriteFrame(near, kind, bytes.Join(parts, nil)); err != nil {
			t.Fatal(err)
		}
	}
	write(frCtrl, []byte{ctrlStats}, stats)
	resp := wire.NewEnc(nil)
	resp.U64(corr)
	write(frStateResp, resp.Bytes(), answer)
	// The same two handlers, a thousand times over with other bytes (the
	// responses are for a call nobody waits on), then a marker behind them.
	for i := 0; i < 1000; i++ {
		noise := bytes.Repeat([]byte{byte(i)}, 1+i%300)
		if i%2 == 0 {
			write(frStateResp, noise, noise)
		} else {
			write(frCtrl, []byte{ctrlDrain}, noise)
			<-e.ctrl[ctrlDrain]
		}
	}
	write(frCtrl, []byte{ctrlDone})
	<-e.ctrl[ctrlDone]

	if got := <-e.ctrl[ctrlStats]; !bytes.Equal(got, stats) {
		t.Errorf("STATS payload after 1000 further frames: %q", got)
	}
	<-call.reply
	if !bytes.Equal(call.resp, answer) {
		t.Errorf("state response after 1000 further frames: %x", call.resp)
	}
}

// TestStateCallLateResponseAfterTimeout: a state call that timed out leaves
// its slot to the garbage collector. The test plays rank 0 by hand: it lets
// one read time out, answers it late, then serves a run of further reads —
// none of which may be handed the abandoned slot, or see the late answer.
func TestStateCallLateResponseAfterTimeout(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{"unix:" + dir + "/r0", "unix:" + dir + "/r1"}
	ln, err := gonet.Listen("unix", dir+"/r0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	e, err := New(Config{Rank: 1, Ranks: 2, Addrs: addrs, StateTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() { started <- e.Start() }()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, _, err := wire.ReadFrame(peer); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(peer, frHello, helloBody(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer e.Shutdown()

	// read issues one remote word read; its outcome arrives on the channel.
	type outcome struct {
		v     uint64
		fault any
	}
	read := func() <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() { o.fault = recover(); out <- o }()
			o.v = memRemote{e}.ReadRaw(64)
		}()
		return out
	}
	// request reads the next STATE_REQ off the wire and finds its slot.
	request := func() (corr uint64, slot *stateCall) {
		t.Helper()
		kind, body, err := wire.ReadFrame(peer)
		if err != nil || kind != frStateReq {
			t.Fatalf("peer read kind %d, err %v, want a STATE_REQ", kind, err)
		}
		corr = wire.NewDec(body, nil).U64()
		e.pendMu.Lock()
		slot = e.pend[corr]
		e.pendMu.Unlock()
		return corr, slot
	}
	answer := func(corr, v uint64) {
		t.Helper()
		resp := wire.NewEnc(nil)
		resp.U64(corr)
		resp.U64(v)
		if err := wire.WriteFrame(peer, frStateResp, resp.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	timedOut := read()
	lateCorr, abandoned := request()
	if abandoned == nil {
		t.Fatal("no slot registered for the request on the wire")
	}
	if o := <-timedOut; o.fault == nil || !strings.Contains(fmt.Sprint(o.fault), "timed out") {
		t.Fatalf("unanswered read returned %d, fault %v; want a timeout", o.v, o.fault)
	}
	answer(lateCorr, 0xdead)
	for i := uint64(0); i < 200; i++ {
		res := read()
		corr, slot := request()
		if slot == abandoned {
			t.Fatalf("call %d was handed the slot of the call that timed out", i)
		}
		answer(corr, 1000+i)
		if o := <-res; o.fault != nil || o.v != 1000+i {
			t.Fatalf("call %d: read %d, fault %v; want %d", i, o.v, o.fault, 1000+i)
		}
	}
}

// TestBoundReplicaReadsRankZero: after BindState, rank 1's replica — which
// ran the same setup fill as rank 0 — reads and writes rank 0's words
// through FillRaw and ReadRaw, and none of its own (internal/mem's
// TestSetRemoteDropsReplica: the replica keeps no page).
func TestBoundReplicaReadsRankZero(t *testing.T) {
	var mems [2]*mem.Memory
	var base mem.Addr
	startPair(t, func(rank int, e *Engine) {
		mems[rank] = mem.New(&sccPlatform)
		base = mems[rank].Alloc(64, 0)
		mems[rank].FillRaw(base, 64, []uint64{3}) // replicated setup
		e.BindState(mems[rank], mem.NewRegisters(&sccPlatform), func(int) int { return 0 })
	})
	mems[0].WriteRaw(base+1, 8)
	if got := mems[1].ReadRaw(base + 1); got != 8 {
		t.Errorf("rank 1 ReadRaw = %d, want rank 0's 8", got)
	}
	if got := mems[1].ReadRaw(base + 2); got != 3 {
		t.Errorf("rank 1 ReadRaw = %d, want the setup's 3", got)
	}
	mems[1].FillRaw(base+4, 2, []uint64{6, 7})
	for i, want := range []uint64{3, 6, 7, 6, 7, 3} {
		if got := mems[0].ReadRaw(base + 3 + mem.Addr(i)); got != want {
			t.Errorf("rank 0 word %d = %d after rank 1's FillRaw, want %d", 3+i, got, want)
		}
	}
}
