package net

import (
	"bytes"
	gonet "net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/port"
	"repro/internal/wire"
)

// The transport's three seams, each alone: a connection reader fed frames as
// fast as a socket delivers them, one remote word read (the state RPC every
// memory access of a non-home rank pays), and one remote send. bench/'s
// net.pingpong_ns and net.state_read_ns time the last two from outside, with
// the protocol layers on top; these leave only internal/net and
// internal/wire in the loop. Everything here is written against what the
// engine had before its per-frame path stopped allocating, so the file
// compiles on either side of that change.

// benchMsg is the payload of the transport benchmarks. Kind 251 is far
// above the protocol's message kinds (and off bench/'s 250).
type benchMsg struct{ Seq uint64 }

func init() {
	wire.Register(wire.Codec{
		Kind:   251,
		Type:   reflect.TypeOf(&benchMsg{}),
		Encode: func(e *wire.Enc, v any) { e.U64(v.(*benchMsg).Seq) },
		Decode: func(d *wire.Dec) any { return &benchMsg{Seq: d.U64()} },
	})
}

// startPair builds two ranks in this process over unix sockets, lets setup
// spawn ports and bind state on each (identically: replicated construction),
// and starts them. They are shut down and closed with the test.
func startPair(tb testing.TB, setup func(rank int, e *Engine)) (engs [2]*Engine) {
	tb.Helper()
	dir := tb.TempDir()
	addrs := []string{"unix:" + dir + "/r0", "unix:" + dir + "/r1"}
	for r := range engs {
		e, err := New(Config{Rank: r, Ranks: 2, Addrs: addrs, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		setup(r, e)
		engs[r] = e
	}
	var wg sync.WaitGroup
	var errs [2]error
	for r, e := range engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = e.Start()
		}()
	}
	wg.Wait()
	tb.Cleanup(func() {
		for _, e := range engs {
			e.Shutdown()
		}
		for _, e := range engs {
			e.Close()
		}
	})
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return engs
}

// BenchmarkFrameReadLoop drives one connection reader with MSG frames
// written 32 to a burst into a unix socket, each decoded and pushed into a
// local port's mailbox: the read side of the transport per frame.
func BenchmarkFrameReadLoop(b *testing.B) {
	e, err := New(Config{Rank: 0, Ranks: 2, Addrs: []string{"unix:/unused0", "unix:/unused1"}})
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	sink := e.Spawn("sink", 0, func(p port.Port) {
		for i := 0; i < b.N; i++ {
			p.Recv()
		}
		close(drained)
	})
	src := e.Spawn("src", 1, nil)
	e.Host.Start()
	defer e.Shutdown()

	ln, err := gonet.Listen("unix", b.TempDir()+"/pipe")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	near, err := gonet.Dial("unix", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer far.Close()
	go e.readLoop(e.links[1], far)

	msg := wire.NewEnc(nil)
	msg.U32(uint32(sink.ID()))
	msg.U32(uint32(src.ID()))
	if err := wire.EncodePayload(msg, &benchMsg{Seq: 1}); err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	wire.WriteFrame(&frame, frMsg, msg.Bytes())
	const perBurst = 32
	burst := bytes.Repeat(frame.Bytes(), perBurst)

	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= perBurst {
		if _, err := near.Write(burst[:min(left, perBurst)*frame.Len()]); err != nil {
			b.Fatal(err)
		}
	}
	<-drained
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkStateRead times one remote word read: rank 1 reads words homed on
// rank 0, a STATE_REQ out and a STATE_RESP back over the socket.
func BenchmarkStateRead(b *testing.B) {
	pl := noc.SCC(0)
	var mems [2]*mem.Memory
	startPair(b, func(rank int, e *Engine) {
		mems[rank] = mem.New(&pl)
		e.BindState(mems[rank], mem.NewRegisters(&pl), func(int) int { return 0 })
	})
	for a := mem.Addr(0); a < 1024; a++ {
		mems[0].WriteRaw(a, uint64(a))
	}
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += mems[1].ReadRaw(mem.Addr(i % 1024))
	}
	b.StopTimer()
	if b.N >= 1024 && sum == 0 {
		b.Fatal("remote reads returned only zeros")
	}
}

// BenchmarkSendRemote times one remote send end to end: a port on rank 0
// floods a port on rank 1, so an iteration is one payload encoded and
// written by sendRemote, and read, decoded and delivered by the peer's
// connection reader.
func BenchmarkSendRemote(b *testing.B) {
	release := make(chan struct{})
	delivered := make(chan struct{})
	startPair(b, func(rank int, e *Engine) {
		var sink port.Port
		e.Spawn("src", 0, func(p port.Port) {
			<-release
			msg := &benchMsg{Seq: 1}
			for i := 0; i < b.N; i++ {
				p.Send(sink, msg, 0)
			}
		})
		sink = e.Spawn("sink", 1, func(p port.Port) {
			for i := 0; i < b.N; i++ {
				p.Recv()
			}
			close(delivered)
		})
	})
	b.ReportAllocs()
	b.ResetTimer()
	close(release)
	<-delivered
}
