package port_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/core" // registers the Batch envelope's wire codec
	"repro/internal/live"
	tmnet "repro/internal/net"
	"repro/internal/port"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The port contract: one table of mailbox cases, run over every backend —
// the sim kernel's procs, the live engine (one Host) and a two-rank net
// loopback (a Host per rank, the sender's messages crossing a unix socket).
// internal/core is written against exactly these semantics.

// note is the payload every case sends; registered with the wire codec
// (kind 201, far above the protocol's kinds) so it can cross the net rig.
type note struct{ V int }

func init() {
	wire.Register(wire.Codec{
		Kind:   201,
		Type:   reflect.TypeOf(&note{}),
		Encode: func(e *wire.Enc, v any) { e.Int(v.(*note).V) },
		Decode: func(d *wire.Dec) any { return &note{V: d.Int()} },
	})
}

func val(m port.Msg) int { return m.Payload.(*note).V }

func is(v int) func(port.Msg) bool {
	return func(m port.Msg) bool { return val(m) == v }
}

func batch(vs ...int) *port.Batch {
	b := &port.Batch{}
	for _, v := range vs {
		b.Payloads = append(b.Payloads, &note{V: v})
	}
	return b
}

const rigSeed = 42

// actor is one side of a case: it runs on its own port, peer is the other
// side's port as this process sees it (a Stub on the net rig).
type actor func(self, peer port.Port)

// A rig runs recv as spawn-order actor 0 and send as actor 1, waits for
// both to return — only for send when serve is set: recv is then a service
// loop that the shutdown kill ends — and shuts the backend down in order.
type rig struct {
	name string
	run  func(t *testing.T, serve bool, recv, send actor)
}

func await(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("actors stuck")
	}
}

func runSim(t *testing.T, _ bool, recv, send actor) {
	k := sim.New(rigSeed)
	var ports [2]port.Port
	for i, fn := range []actor{recv, send} {
		ports[i] = k.Spawn(fmt.Sprint("actor", i), func(p *sim.Proc) { fn(p, ports[1-i]) })
	}
	k.Run(sim.Infinity) // an empty event queue is quiescence
	k.Shutdown()
}

func runLive(t *testing.T, serve bool, recv, send actor) {
	e := live.New(rigSeed)
	var wg sync.WaitGroup
	var ports [2]port.Port
	for i, fn := range []actor{recv, send} {
		counted := i == 1 || !serve
		if counted {
			wg.Add(1)
		}
		ports[i] = e.Spawn(fmt.Sprint("actor", i), func(p port.Port) {
			if counted {
				defer wg.Done()
			}
			fn(p, ports[1-i])
		})
	}
	e.Start()
	await(t, &wg)
	e.Shutdown()
}

// runNet hosts actor i on rank i. Both ranks spawn both actors in the same
// order (replicated construction); the drain barriers before Shutdown are
// what core.System runs, so every frame sent is in a mailbox by then.
func runNet(t *testing.T, serve bool, recv, send actor) {
	dir := t.TempDir()
	addrs := []string{"unix:" + dir + "/r0", "unix:" + dir + "/r1"}
	var engs [2]*tmnet.Engine
	var wg sync.WaitGroup
	for r := range engs {
		eng, err := tmnet.New(tmnet.Config{Rank: r, Ranks: 2, Addrs: addrs, Seed: rigSeed})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		engs[r] = eng
		var ports [2]port.Port
		for i, fn := range []actor{recv, send} {
			counted := i == r && (i == 1 || !serve)
			if counted {
				wg.Add(1)
			}
			ports[i] = eng.Spawn(fmt.Sprint("actor", i), i, func(p port.Port) {
				if counted {
					defer wg.Done()
				}
				fn(p, ports[1-i])
			})
		}
	}
	bothRanks := func(step string, fn func(e *tmnet.Engine) error) {
		t.Helper()
		errs := make(chan error, len(engs))
		for _, e := range engs {
			go func() { errs <- fn(e) }()
		}
		for range engs {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	}
	bothRanks("start", (*tmnet.Engine).Start)
	await(t, &wg)
	bothRanks("done barrier", func(e *tmnet.Engine) error { return e.BarrierDone(10 * time.Second) })
	bothRanks("drain barrier", func(e *tmnet.Engine) error { return e.BarrierDrain(10 * time.Second) })
	for _, e := range engs {
		e.Shutdown()
	}
	for _, e := range engs {
		e.Close()
	}
}

var rigs = []rig{{"sim", runSim}, {"live", runLive}, {"net", runNet}}

// deadliner is the bounded selective receive real-time ports add to the
// Port interface.
type deadliner interface {
	RecvMatchTimeout(func(port.Msg) bool, time.Duration) (port.Msg, bool)
}

type contractCase struct {
	name  string
	serve bool
	// build returns the case's two actors and a check to run after the
	// backend shut down. Actors report through t.Errorf: they run off the
	// test goroutine.
	build func(t *testing.T) (recv, send actor, after func())
}

func sendAll(vs ...any) actor {
	return func(self, peer port.Port) {
		for _, v := range vs {
			if n, ok := v.(int); ok {
				v = &note{V: n}
			}
			self.Send(peer, v, 0)
		}
	}
}

// expect receives with next until the values are exhausted.
func expect(t *testing.T, what string, next func() (port.Msg, bool), want ...int) {
	for _, w := range want {
		m, ok := next()
		if !ok || val(m) != w {
			t.Errorf("%s: got %v/%v, want %d/true", what, m.Payload, ok, w)
			return
		}
	}
}

var contract = []contractCase{
	{
		// RecvMatch returns the earliest match; everything it skipped stays
		// queued in delivery order, stamped with the sender's ID.
		name: "RecvMatch takes the earliest match and keeps delivery order",
		build: func(t *testing.T) (actor, actor, func()) {
			recv := func(self, peer port.Port) {
				m := self.RecvMatch(func(m port.Msg) bool { return val(m)%2 == 0 })
				if val(m) != 2 || m.From != peer.ID() {
					t.Errorf("RecvMatch(even) = %d from %d, want 2 from %d", val(m), m.From, peer.ID())
				}
				expect(t, "Recv after match", func() (port.Msg, bool) { return self.Recv(), true }, 1, 3, 5, 4)
			}
			return recv, sendAll(1, 3, 2, 5, 4), nil
		},
	},
	{
		// The sentinel rides the same FIFO path as 7 and 8, so once it is
		// matched they are provably delivered (and stashed).
		name: "TryRecvMatch stashes what it skips",
		build: func(t *testing.T) (actor, actor, func()) {
			recv := func(self, peer port.Port) {
				self.RecvMatch(is(0))
				if m, ok := self.TryRecvMatch(is(99)); ok {
					t.Errorf("TryRecvMatch matched %v, want no match", m.Payload)
				}
				expect(t, "TryRecv after stash", self.TryRecv, 7, 8)
				if m, ok := self.TryRecv(); ok {
					t.Errorf("TryRecv on a drained mailbox returned %v", m.Payload)
				}
			}
			return recv, sendAll(7, 8, 0), nil
		},
	},
	{
		name: "RecvTimeout expires on an empty mailbox and loses to a delivery",
		build: func(t *testing.T) (actor, actor, func()) {
			recv := func(self, peer port.Port) {
				if m, ok := self.RecvTimeout(time.Millisecond); ok {
					t.Errorf("RecvTimeout on an empty mailbox returned %v", m.Payload)
				}
				self.Send(peer, &note{V: 1}, 0) // go
				expect(t, "RecvTimeout", func() (port.Msg, bool) { return self.RecvTimeout(10 * time.Second) }, 2)
			}
			send := func(self, peer port.Port) {
				self.Recv()
				self.Send(peer, &note{V: 2}, 0)
			}
			return recv, send, nil
		},
	},
	{
		// The property that lets lock tables quiesce empty: releases already
		// in a service mailbox are served before the kill takes the loop.
		name:  "a killed receiver drains its mailbox first",
		serve: true,
		build: func(t *testing.T) (actor, actor, func()) {
			const n = 100
			var served atomic.Int64
			recv := func(self, peer port.Port) {
				for {
					self.Recv()
					served.Add(1)
				}
			}
			send := func(self, peer port.Port) {
				for i := 0; i < n; i++ {
					self.Send(peer, &note{V: i}, 0)
				}
			}
			return recv, send, func() {
				if got := served.Load(); got != n {
					t.Errorf("service drained %d of %d messages before dying", got, n)
				}
			}
		},
	},
	{
		// Receivers never observe an envelope: one message per payload, in
		// staged order, pickable from the middle; the hook sees the count.
		name: "a Batch envelope unpacks at the mailbox",
		build: func(t *testing.T) (actor, actor, func()) {
			recv := func(self, peer port.Port) {
				var hooked []int
				self.(interface{ SetBatchHook(func(int)) }).SetBatchHook(func(n int) { hooked = append(hooked, n) })
				self.RecvMatch(is(0))
				m := self.RecvMatch(is(11))
				if m.From != peer.ID() {
					t.Errorf("unpacked payload From = %d, want the envelope's sender %d", m.From, peer.ID())
				}
				expect(t, "TryRecv the rest of the envelope", self.TryRecv, 10, 12)
				if m, ok := self.TryRecv(); ok {
					t.Errorf("TryRecv past the envelope returned %v", m.Payload)
				}
				if len(hooked) != 1 || hooked[0] != 3 {
					t.Errorf("batch hook saw %v, want one envelope of 3", hooked)
				}
			}
			return recv, sendAll(batch(10, 11, 12), 0), nil
		},
	},
	{
		name: "RecvMatchTimeout bounds a selective receive",
		build: func(t *testing.T) (actor, actor, func()) {
			recv := func(self, peer port.Port) {
				dr, ok := self.(deadliner)
				if !ok {
					// Virtual time has no lost messages to bound.
					if _, isSim := self.(*sim.Proc); !isSim {
						t.Errorf("%T lacks RecvMatchTimeout", self)
					}
					self.Send(peer, &note{V: 1}, 0)
					return
				}
				if m, ok := dr.RecvMatchTimeout(is(7), 5*time.Millisecond); ok {
					t.Errorf("RecvMatchTimeout matched %v before it was sent", m.Payload)
				}
				self.Send(peer, &note{V: 1}, 0) // go
				expect(t, "RecvMatchTimeout", func() (port.Msg, bool) { return dr.RecvMatchTimeout(is(7), 10*time.Second) }, 7)
				// The decoy it skipped is still deliverable.
				expect(t, "Recv the decoy", func() (port.Msg, bool) { return self.Recv(), true }, 3)
			}
			send := func(self, peer port.Port) {
				self.Send(peer, &note{V: 3}, 0) // decoy: never matches
				self.Recv()
				self.Send(peer, &note{V: 7}, 0)
			}
			return recv, send, nil
		},
	},
	{
		// Workload shapes must match across backends and ranks: port i's
		// stream is the sim kernel's proc-i stream.
		name: "Rand streams follow the sim kernel's per-ID seeding",
		build: func(t *testing.T) (actor, actor, func()) {
			draw := func(self, _ port.Port) {
				want := sim.NewRand(rigSeed ^ (0x9e3779b97f4a7c15 * uint64(self.ID()+1)))
				for i := 0; i < 2; i++ {
					if got, w := self.Rand().Uint64(), want.Uint64(); got != w {
						t.Errorf("port %d draw %d = %#x, want %#x", self.ID(), i, got, w)
					}
				}
			}
			return draw, draw, nil
		},
	},
}

func TestPortContract(t *testing.T) {
	for _, r := range rigs {
		for _, c := range contract {
			t.Run(r.name+"/"+c.name, func(t *testing.T) {
				recv, send, after := c.build(t)
				r.run(t, c.serve, recv, send)
				if after != nil {
					after()
				}
			})
		}
	}
}

// The Host lifecycle, in both states of the raw inbox: "bounded" queues
// what the channel holds, "unbounded" queues past it into the spill.

func eachInbox(t *testing.T, fn func(t *testing.T, h *port.Host, queued int)) {
	for _, c := range []struct {
		name   string
		queued int
	}{{"bounded", port.InboxCap}, {"unbounded", 2*port.InboxCap + 1}} {
		t.Run(c.name, func(t *testing.T) { fn(t, port.NewHost(1, nil), c.queued) })
	}
}

// pushSeq pushes notes 0..n-1 at p from outside any port.
func pushSeq(p *port.HostPort, n int) {
	for i := 0; i < n; i++ {
		p.Push(port.Msg{From: -1, Payload: &note{V: i}})
	}
}

// TestHostStartGate: spawned goroutines must not run before Start — raw-
// memory setup happens between Spawn and Start, exactly like the sim
// kernel's pre-Run phase — and the clock reads zero until then. Messages
// pushed before Start open no gate and all arrive, in order, after it.
func TestHostStartGate(t *testing.T) {
	eachInbox(t, func(t *testing.T, h *port.Host, queued int) {
		var ran atomic.Bool
		var got []int
		p := h.Spawn("w", func(self port.Port) {
			ran.Store(true)
			for i := 0; i < queued; i++ {
				got = append(got, val(self.Recv()))
			}
		})
		pushSeq(p, queued)
		time.Sleep(20 * time.Millisecond)
		if ran.Load() {
			t.Fatal("goroutine ran before Start")
		}
		if h.Now() != 0 {
			t.Fatalf("Now before Start = %v, want 0", h.Now())
		}
		h.Start()
		h.Shutdown()
		if !ran.Load() {
			t.Fatal("goroutine never ran")
		}
		if !reflect.DeepEqual(got, seq(queued)) {
			t.Fatalf("received %v, want %v", got, seq(queued))
		}
	})
}

// TestHostFaultPropagation: a panic in a port goroutine must surface from
// Shutdown, like sim proc panics surface from Kernel.Run — and only the
// first one — even with messages still queued at the faulted port.
func TestHostFaultPropagation(t *testing.T) {
	eachInbox(t, func(t *testing.T, h *port.Host, queued int) {
		p := h.Spawn("bad", func(self port.Port) {
			self.Recv()
			panic("boom")
		})
		pushSeq(p, queued)
		h.Start()
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Shutdown recovered %v, want boom", r)
			}
			if f := h.Fault(); f != nil {
				t.Fatalf("fault %v survived its re-raise", f)
			}
		}()
		h.Shutdown()
		t.Fatal("Shutdown did not re-panic the fault")
	})
}

// TestHostSendLocalOnly: without a remote hook, a destination that is not a
// HostPort is a programming error, not a silent drop.
func TestHostSendLocalOnly(t *testing.T) {
	h := port.NewHost(1, nil)
	h.Spawn("p", func(p port.Port) { p.Send((*sim.Proc)(nil), &note{}, 0) })
	h.Start()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Send to a foreign port type did not fault")
		}
	}()
	h.Shutdown()
}

// TestSimSendLocalOnly: the same on the kernel — a proc can only send to a
// proc, and says so out of Run instead of dropping the message.
func TestSimSendLocalOnly(t *testing.T) {
	k := sim.New(1)
	k.Spawn("p", func(p *sim.Proc) { p.Send((*port.HostPort)(nil), &note{}, 0) })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Send to a foreign port type did not fault")
		}
	}()
	k.Run(sim.Infinity)
}

// TestPauseIsAdvanceOnSim: in virtual time a wait and a cost are the same
// kernel event. Three procs interleaving random delays fire the same number
// of events, wake at the same instants and fold to the same trace hash
// whether they move the clock through Pause or through Advance — which is
// why moving the simulator's wait sites onto Pause moves no fingerprint.
func TestPauseIsAdvanceOnSim(t *testing.T) {
	run := func(wait func(port.Port, time.Duration)) (events uint64, woke [3][]port.Time, hash uint64) {
		k := sim.New(7)
		k.EnableTraceHash()
		for i := range woke {
			i := i
			k.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < 20; j++ {
					wait(p, time.Duration(p.Rand().Intn(1000)))
					woke[i] = append(woke[i], p.Now())
				}
			})
		}
		k.Run(sim.Infinity)
		k.Shutdown()
		return k.EventsRun(), woke, k.TraceHash()
	}
	ae, aw, ah := run(port.Port.Advance)
	pe, pw, ph := run(port.Port.Pause)
	if ae != pe || ah != ph || !reflect.DeepEqual(aw, pw) {
		t.Fatalf("Advance: %d events, hash %#x, wakes %v\nPause:   %d events, hash %#x, wakes %v", ae, ah, aw, pe, ph, pw)
	}
	if last := aw[0][len(aw[0])-1]; last == 0 {
		t.Fatal("the clock never moved")
	}
}
