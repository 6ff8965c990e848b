package sim

import (
	"testing"
	"time"

	"repro/internal/port"
)

func TestAdvanceMovesVirtualTime(t *testing.T) {
	k := New(1)
	var end Time
	k.Spawn("a", func(p *Proc) {
		p.Advance(5 * time.Microsecond)
		p.Advance(7 * time.Microsecond)
		end = p.Now()
	})
	k.Run(Infinity)
	if end != Time(12*time.Microsecond) {
		t.Fatalf("end = %v, want 12µs", end)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d, want 0", k.Live())
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	k := New(1)
	k.Spawn("a", func(p *Proc) {
		before := k.EventsRun()
		p.Advance(0)
		if k.EventsRun() != before {
			t.Errorf("Advance(0) scheduled an event")
		}
	})
	k.Run(Infinity)
}

// TestEventOrderingByTimeThenSeq: four procs start at 0 in spawn order and
// each schedules its resume; resumes fire by time, and equal times in the
// order they were scheduled.
func TestEventOrderingByTimeThenSeq(t *testing.T) {
	k := New(1)
	var got []int
	after := func(d time.Duration, tag int) {
		k.Spawn("p", func(p *Proc) {
			p.Advance(d)
			got = append(got, tag)
		})
	}
	after(2*time.Nanosecond, 2)
	after(1*time.Nanosecond, 1)
	after(1*time.Nanosecond, 11) // same time, later seq
	after(0, 0)
	k.Run(Infinity)
	want := []int{0, 1, 11, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSendRecvDeliversWithDelay(t *testing.T) {
	k := New(1)
	var rx *Proc
	var gotAt Time
	var gotPayload any
	rx = k.Spawn("rx", func(p *Proc) {
		m := p.Recv()
		gotAt = p.Now()
		gotPayload = m.Payload
	})
	k.Spawn("tx", func(p *Proc) {
		p.Advance(3 * time.Microsecond)
		p.Send(rx, "hello", 2*time.Microsecond)
	})
	k.Run(Infinity)
	if gotAt != Time(5*time.Microsecond) {
		t.Fatalf("delivered at %v, want 5µs", gotAt)
	}
	if gotPayload != "hello" {
		t.Fatalf("payload = %v", gotPayload)
	}
}

func TestRecvBlocksUntilMessage(t *testing.T) {
	k := New(1)
	var rx *Proc
	order := []string{}
	rx = k.Spawn("rx", func(p *Proc) {
		p.Recv()
		order = append(order, "recv")
	})
	k.Spawn("tx", func(p *Proc) {
		p.Advance(time.Millisecond)
		order = append(order, "send")
		p.Send(rx, 1, 0)
	})
	k.Run(Infinity)
	if len(order) != 2 || order[0] != "send" || order[1] != "recv" {
		t.Fatalf("order = %v", order)
	}
}

func TestPerPairFIFOUnderShrinkingDelay(t *testing.T) {
	k := New(1)
	var rx *Proc
	var got []int
	rx = k.Spawn("rx", func(p *Proc) {
		for i := 0; i < 2; i++ {
			m := p.Recv()
			got = append(got, m.Payload.(int))
		}
	})
	k.Spawn("tx", func(p *Proc) {
		p.Send(rx, 1, 10*time.Microsecond)
		p.Send(rx, 2, 1*time.Microsecond) // would overtake without FIFO clamp
	})
	k.Run(Infinity)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestDistinctPairsMayOvertake(t *testing.T) {
	k := New(1)
	var rx *Proc
	var got []int
	rx = k.Spawn("rx", func(p *Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, p.Recv().Payload.(int))
		}
	})
	k.Spawn("slow", func(p *Proc) { p.Send(rx, 1, 10*time.Microsecond) })
	k.Spawn("fast", func(p *Proc) { p.Send(rx, 2, 1*time.Microsecond) })
	k.Run(Infinity)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("got %v, want [2 1]", got)
	}
}

func TestTryRecv(t *testing.T) {
	k := New(1)
	var rx *Proc
	rx = k.Spawn("rx", func(p *Proc) {
		if _, ok := p.TryRecv(); ok {
			t.Errorf("TryRecv returned a message on empty mailbox")
		}
		p.Advance(5 * time.Microsecond)
		m, ok := p.TryRecv()
		if !ok || m.Payload.(int) != 7 {
			t.Errorf("TryRecv after delivery: ok=%v m=%v", ok, m)
		}
	})
	k.Spawn("tx", func(p *Proc) { p.Send(rx, 7, time.Microsecond) })
	k.Run(Infinity)
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	fired := 0
	k.Spawn("p", func(p *Proc) {
		p.Advance(time.Millisecond)
		fired++
		p.Advance(2 * time.Millisecond)
		fired++
	})
	k.Run(Time(2 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("now = %v, want 2ms", k.Now())
	}
	k.Run(Infinity)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestShutdownReleasesBlockedProcs(t *testing.T) {
	k := New(1)
	for i := 0; i < 10; i++ {
		k.Spawn("blocked", func(p *Proc) {
			p.Recv() // never satisfied
			t.Errorf("blocked proc returned from Recv")
		})
	}
	k.Run(Infinity)
	if k.Live() != 10 {
		t.Fatalf("live = %d, want 10", k.Live())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("after shutdown live = %d, want 0", k.Live())
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New(1)
	done := false
	k.Spawn("parent", func(p *Proc) {
		p.Advance(time.Microsecond)
		child := k.Spawn("child", func(c *Proc) {
			c.Advance(time.Microsecond)
			done = true
		})
		if child.ID() != 1 {
			t.Errorf("child ID = %d, want 1", child.ID())
		}
	})
	k.Run(Infinity)
	if !done {
		t.Fatal("child did not run")
	}
}

func TestDeterministicTraceHash(t *testing.T) {
	run := func() uint64 {
		k := New(42)
		k.EnableTraceHash()
		var procs []*Proc
		for i := 0; i < 8; i++ {
			procs = append(procs, k.Spawn("svc", func(p *Proc) {
				for {
					p.Recv()
					p.Advance(time.Duration(p.Rand().Intn(500)) * time.Nanosecond)
				}
			}))
		}
		k.Spawn("driver", func(p *Proc) {
			for i := 0; i < 200; i++ {
				dst := procs[p.Rand().Intn(len(procs))]
				p.Send(dst, i, time.Duration(p.Rand().Intn(2000))*time.Nanosecond)
				p.Advance(time.Duration(p.Rand().Intn(300)) * time.Nanosecond)
			}
		})
		k.Run(Infinity)
		k.Shutdown() // the services are blocked in Recv
		return k.TraceHash()
	}
	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("trace hashes differ: %x vs %x", h1, h2)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed uint64) Time {
		k := New(seed)
		var end Time
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(time.Duration(p.Rand().Intn(1000)+1) * time.Nanosecond)
			}
			end = p.Now()
		})
		k.Run(Infinity)
		return end
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestMailboxCompaction(t *testing.T) {
	k := New(1)
	var rx *Proc
	total := 0
	rx = k.Spawn("rx", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			total += p.Recv().Payload.(int)
		}
	})
	k.Spawn("tx", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Send(rx, 1, time.Nanosecond)
		}
	})
	k.Run(Infinity)
	if total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}
}

func TestSendToFinishedProcIsDropped(t *testing.T) {
	k := New(1)
	var rx *Proc
	rx = k.Spawn("rx", func(p *Proc) {}) // exits immediately
	k.Spawn("tx", func(p *Proc) {
		p.Advance(time.Millisecond)
		p.Send(rx, 1, time.Microsecond) // must not panic or wake anything
	})
	k.Run(Infinity)
	if k.Live() != 0 {
		t.Fatalf("live = %d", k.Live())
	}
}

func TestNegativeDelaysPanic(t *testing.T) {
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative Advance did not panic")
				}
			}()
			p.Advance(-time.Second)
		}()
	})
	k.Run(Infinity)
}

func TestProcPanicPropagatesToRunCaller(t *testing.T) {
	k := New(1)
	k.Spawn("buggy", func(p *Proc) {
		p.Advance(time.Microsecond)
		panic("proc bug")
	})
	defer func() {
		r := recover()
		if r != "proc bug" {
			t.Fatalf("recovered %v, want proc bug", r)
		}
	}()
	k.Run(Infinity)
	t.Fatal("Run returned despite proc panic")
}

func TestTimeString(t *testing.T) {
	if Time(1500).String() != "1.5µs" {
		t.Fatalf("Time.String = %q", Time(1500).String())
	}
	if Time(time.Millisecond).Duration() != time.Millisecond {
		t.Fatal("Duration round-trip failed")
	}
}

func TestRecvMatchSelectsAcrossQueue(t *testing.T) {
	k := New(1)
	var rx *Proc
	got := make([]int, 0, 4)
	rx = k.Spawn("rx", func(p *Proc) {
		// Wait for all four messages to be queued.
		for p.Pending() < 4 {
			p.Advance(10 * time.Microsecond)
		}
		// Take the even payloads first, in delivery order, leaving the odd
		// ones queued.
		even := func(m port.Msg) bool { return m.Payload.(int)%2 == 0 }
		got = append(got, p.RecvMatch(even).Payload.(int))
		got = append(got, p.RecvMatch(even).Payload.(int))
		// Plain Recv drains the remainder in delivery order.
		got = append(got, p.Recv().Payload.(int))
		got = append(got, p.Recv().Payload.(int))
	})
	k.Spawn("tx", func(p *Proc) {
		for i, v := range []int{1, 2, 3, 4} {
			p.Send(rx, v, time.Duration(i+1)*time.Microsecond)
		}
	})
	k.Run(Infinity)
	want := []int{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRecvMatchBlocksUntilMatchArrives(t *testing.T) {
	k := New(1)
	var rx *Proc
	var matchedAt Time
	rx = k.Spawn("rx", func(p *Proc) {
		m := p.RecvMatch(func(m port.Msg) bool { return m.Payload.(string) == "yes" })
		matchedAt = p.Now()
		if m.Payload.(string) != "yes" {
			t.Errorf("matched payload %v", m.Payload)
		}
		if p.Pending() != 2 {
			t.Errorf("pending = %d, want 2 skipped messages", p.Pending())
		}
	})
	k.Spawn("tx", func(p *Proc) {
		p.Send(rx, "no", 1*time.Microsecond)
		p.Send(rx, "nope", 2*time.Microsecond)
		p.Send(rx, "yes", 5*time.Microsecond)
	})
	k.Run(Infinity)
	if matchedAt != Time(5*time.Microsecond) {
		t.Fatalf("matched at %v, want 5µs", matchedAt)
	}
}
