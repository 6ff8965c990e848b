package port_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/port"
)

// The raw inbox under every HostPort: a channel of port.InboxCap slots and a
// spill queue behind it. These cases drive the spill path on purpose; the
// contract suite above covers the channel path on every backend.

// hostRun spawns fns on a fresh Host in order, starts it, waits until every
// fn has returned and shuts the Host down.
func hostRun(t *testing.T, fns ...func(p port.Port, peers []port.Port)) {
	t.Helper()
	h := port.NewHost(1, nil)
	peers := make([]port.Port, len(fns))
	done := make(chan struct{}, len(fns))
	for i, fn := range fns {
		peers[i] = h.Spawn(fmt.Sprint("p", i), func(p port.Port) {
			defer func() { done <- struct{}{} }()
			fn(p, peers)
		})
	}
	h.Start()
	for range fns {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("ports stuck")
		}
	}
	h.Shutdown()
}

// TestInboxSpillKeepsSenderOrder: three senders each push ten channels' worth
// at a receiver that sits in Pause until all three have returned from every
// push — so no push blocked. Then every message arrives, each sender's in the
// order it sent them.
func TestInboxSpillKeepsSenderOrder(t *testing.T) {
	const senders, each = 3, 10 * port.InboxCap
	var finished atomic.Int64
	before := port.Spills()
	recv := func(self port.Port, _ []port.Port) {
		for deadline := time.Now().Add(10 * time.Second); finished.Load() < senders; {
			if time.Now().After(deadline) {
				t.Errorf("%d of %d senders returned from their pushes to a receiver in Pause", finished.Load(), senders)
				return
			}
			self.Pause(time.Millisecond)
		}
		next := map[int]int{}
		for i := 0; i < senders*each; i++ {
			m := self.Recv()
			if v := val(m); v != next[m.From] {
				t.Errorf("message %d from port %d arrived as its #%d", v, m.From, next[m.From])
				return
			}
			next[m.From]++
		}
		if m, ok := self.TryRecv(); ok {
			t.Errorf("message %v arrived beyond the %d sent", m.Payload, senders*each)
		}
	}
	send := func(self port.Port, peers []port.Port) {
		for i := 0; i < each; i++ {
			self.Send(peers[0], &note{V: i}, 0)
		}
		finished.Add(1)
	}
	hostRun(t, recv, send, send, send)
	if port.Spills() == before {
		t.Error("no push spilled")
	}
}

// TestInboxSelfSendSpills: a port may send itself more than its channel
// holds — the parent's bounded channel made that a self-deadlock past its
// capacity — and receives it all in order.
func TestInboxSelfSendSpills(t *testing.T) {
	const n = 2*port.InboxCap + 1
	hostRun(t, func(self port.Port, _ []port.Port) {
		for i := 0; i < n; i++ {
			self.Send(self, &note{V: i}, 0)
		}
		expect(t, "Recv own burst", func() (port.Msg, bool) { return self.Recv(), true }, seq(n)...)
	})
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestInboxShutdownServesEverySpill: 4,097 messages pushed at a port that is
// not receiving — one more than the parent's bounded channel held — are all
// served, in order, after Shutdown begins and before the port unwinds. The
// parent blocked the last push and dropped it at the kill.
func TestInboxShutdownServesEverySpill(t *testing.T) {
	const n = 4097
	h := port.NewHost(1, nil)
	release := make(chan struct{})
	var served []int
	p := h.Spawn("svc", func(self port.Port) {
		<-release
		for {
			served = append(served, val(self.Recv()))
		}
	})
	h.Start()
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		for i := 0; i < n; i++ {
			p.Push(port.Msg{From: -1, Payload: &note{V: i}})
		}
	}()
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Error("Push blocked on a port that is not receiving")
	}
	down := make(chan struct{})
	go func() {
		defer close(down)
		h.Shutdown()
	}()
	<-h.Quit()
	close(release)
	<-down
	<-pushed
	if len(served) != n {
		t.Fatalf("the killed port served %d of %d pushed messages", len(served), n)
	}
	for i, v := range served {
		if v != i {
			t.Fatalf("served #%d is message %d", i, v)
		}
	}
}

// TestInboxSpillsBehindStalledMultitaskNode: the protocol reaches the spill
// path, and not only the cases above. On live under Multitask, every app
// core serves its own DTM node whenever it waits. App core 0 computes and
// never waits, so its node is not served, while the other cores run bank
// transfers until more than a channel's worth of requests queue behind it:
// each core that asks node 0 stays blocked there, so the queue only grows.
// Then core 0 stops, its node serves them all, and the bank's money is
// conserved. No core stops on a clock of its own: on a loaded host a timed
// window could end before enough cores had asked node 0.
func TestInboxSpillsBehindStalledMultitaskNode(t *testing.T) {
	const accounts = 1024
	before := port.Spills()
	s, err := core.NewSystem(core.Config{Backend: core.BackendLive, Deployment: core.Multitask,
		Seed: 7, TotalCores: 48, Policy: cm.FairCM})
	if err != nil {
		t.Fatal(err)
	}
	b := bank.New(s, accounts)
	end := time.Now().Add(10 * time.Second)
	stalled := func() bool { return port.Spills() == before && time.Now().Before(end) }
	s.SpawnWorkers(func(rt *core.Runtime) {
		if rt.AppIndex() == 0 {
			for stalled() {
				rt.Compute(time.Microsecond)
			}
			return
		}
		r := rt.Rand()
		for stalled() {
			from, to := bank.PickTransfer(r, accounts)
			b.Transfer(rt, from, to, 1)
			rt.AddOps(1)
		}
	})
	s.RunToCompletion()
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
	}
	n := port.Spills() - before
	if n == 0 {
		t.Fatal("10 s of a stalled Multitask node never filled its channel")
	}
	t.Logf("%d spills", n)
}

// BenchmarkInboxHandoff: one round trip between two ports — a channel hand-
// off each way — on one P and on two.
func BenchmarkInboxHandoff(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := port.NewHost(1, nil)
			done := make(chan struct{})
			var ping, pong port.Port
			ping = h.Spawn("ping", func(self port.Port) {
				defer close(done)
				msg := &note{}
				for i := 0; i < b.N; i++ {
					self.Send(pong, msg, 0)
					self.Recv()
				}
			})
			pong = h.Spawn("pong", func(self port.Port) {
				for {
					self.Send(ping, self.Recv().Payload, 0)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			h.Start()
			<-done
			b.StopTimer()
			h.Shutdown()
		})
	}
}

// BenchmarkInboxBurst: a port sends itself a burst of 64 — past the channel
// into the spill unless the channel holds 64 — and drains it.
func BenchmarkInboxBurst(b *testing.B) {
	const burst = 64
	h := port.NewHost(1, nil)
	done := make(chan struct{})
	h.Spawn("p", func(self port.Port) {
		defer close(done)
		msg := &note{}
		for i := 0; i < b.N; i++ {
			for j := 0; j < burst; j++ {
				self.Send(self, msg, 0)
			}
			for j := 0; j < burst; j++ {
				self.Recv()
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	h.Start()
	<-done
	b.StopTimer()
	h.Shutdown()
}
