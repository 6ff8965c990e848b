package sim

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw kernel event throughput: 64 procs each
// advance once per round, so every dispatch pops a resume from a 64-deep
// heap and hands control to its proc and back.
func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	k := New(1)
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := i; j < b.N; j += procs {
				p.Advance(time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkAdvance measures the cost of one Advance round trip (a resume
// event and two channel handoffs) between the kernel and a proc: what
// bench/'s sim.event_dispatch_ns times.
func BenchmarkAdvance(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkSendRecv measures a one-message ping-pong between two procs (two
// deliver events per iteration): bench/'s sim.send_recv_ns.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	var a, c *Proc
	a = k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(c, i, time.Nanosecond)
			p.Recv()
		}
	})
	c = k.Spawn("c", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m := p.Recv()
			p.Send(a, m.Payload, time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkRand measures the PRNG.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
