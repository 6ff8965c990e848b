package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/dslock"
	"repro/internal/live"
	"repro/internal/mem"
	netbe "repro/internal/net"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The micro step of a traced run: a tight loop over each layer's public
// functions, one second each under the contract's -seconds, reporting
// nanoseconds (and, where the layer is known to allocate, heap allocations)
// per call. These are the numbers a per-layer optimisation moves first;
// README.md says which end-to-end metric each should move with it.

// sink defeats dead-code elimination of the measured calls.
var sink uint64

// timeLoop calibrates on a short batch, then times one batch sized to fill
// the budget. body(n) must perform n calls.
func timeLoop(budget time.Duration, body func(n int)) (nsPerCall, allocsPerCall float64) {
	n := 256
	t0 := time.Now()
	body(n)
	if el := time.Since(t0); el < budget {
		per := float64(el) / float64(n)
		if per < 1 {
			per = 1
		}
		n = int(float64(budget) / per)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	body(n)
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nopCtx is the execution context of the mem loops: no clock, no latency.
type nopCtx struct{}

func (nopCtx) Now() sim.Time         { return 0 }
func (nopCtx) Advance(time.Duration) {}

// benchPing is the payload of the transport loops. Kind 250 is far above
// the protocol's message kinds.
type benchPing struct{ Seq uint64 }

func init() {
	wire.Register(wire.Codec{
		Kind:   250,
		Type:   reflect.TypeOf(&benchPing{}),
		Encode: func(e *wire.Enc, v any) { e.U64(v.(*benchPing).Seq) },
		Decode: func(d *wire.Dec) any { return &benchPing{Seq: d.U64()} },
	})
}

// micro runs every loop once, each for budget, and returns the per-layer
// micro metrics.
func micro(outDir string, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	microDslock(m, budget)
	microCM(m, budget)
	if err := microPlacement(m, budget); err != nil {
		return nil, err
	}
	microMem(m, budget)
	microOutbox(m, budget)
	microLive(m, budget)
	if err := microNet(m, budget, outDir); err != nil {
		return nil, err
	}
	if err := microWire(m, budget); err != nil {
		return nil, err
	}
	microSim(m, budget)
	microTrace(m, budget)
	return m, nil
}

func microDslock(m map[string]float64, budget time.Duration) {
	t := dslock.NewTable()
	me := cm.Meta{Core: 1, TxID: 1}
	m["dslock.read_grant_release_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			addr := mem.Addr(i % 1024)
			if t.ReadConflict(addr, me) == nil {
				t.AddReader(addr, me)
			}
			t.ReleaseRead(addr, me.Core, me.TxID)
		}
	})
	// A write request against 16 foreign readers: the WAR scan.
	const addr mem.Addr = 7
	for c := 0; c < 16; c++ {
		t.AddReader(addr, cm.Meta{Core: c, TxID: uint64(c)})
	}
	req := cm.Meta{Core: 99, TxID: 100}
	m["dslock.write_conflict_scan_ns"], m["dslock.write_conflict_scan_allocs"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(t.WriteConflict(addr, req).Enemies))
		}
	})
}

func microCM(m map[string]float64, budget time.Duration) {
	enemies := make([]cm.Meta, 4)
	for i := range enemies {
		enemies[i] = cm.Meta{Core: i, TxID: uint64(i), Prio: int64(100 + i)}
	}
	req := cm.Meta{Core: 9, TxID: 9, Prio: 50}
	m["cm.resolve_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(cm.FairCM.Resolve(req, enemies, cm.WAR))
		}
	})
}

// microPlacement resolves (and, under the adaptive policies, records)
// uniformly drawn keys of a 2^20-word universe from two accessor clusters:
// the directory work of one lock request on live-place-hier.
func microPlacement(m map[string]float64, budget time.Duration) error {
	for _, c := range []struct {
		kind   placement.Kind
		ns     string
		allocs string
	}{
		{placement.Hash, "placement.owner_hash_ns", ""},
		{placement.Adaptive, "placement.owner_record_adaptive_ns", ""},
		{placement.AdaptiveHier, "placement.owner_record_hier_ns", "placement.owner_record_hier_allocs"},
	} {
		d, err := placement.New(placement.Config{
			Nodes: 2, Kind: c.kind, Regions: 1, RegionWords: 1 << 26,
			Clusters: []int{0, 1}, EvalEvery: 1024,
		})
		if err != nil {
			return fmt.Errorf("micro: placement %v: %w", c.kind, err)
		}
		r := sim.NewRand(1)
		ns, allocs := timeLoop(budget, func(n int) {
			for i := 0; i < n; i++ {
				k := mem.Addr(1 + r.Intn(1<<20))
				sink += uint64(d.Owner(k))
				d.Record(i&1, k)
				// Complete what the policy started, as a DTM node would,
				// so stripes do not stay frozen for the rest of the loop.
				for node := 0; node < 2 && d.HasPending(node); node++ {
					for _, s := range d.PendingFor(node) {
						d.CompleteHandoff(s)
					}
				}
			}
		})
		m[c.ns] = ns
		if c.allocs != "" {
			m[c.allocs] = allocs
		}
	}
	return nil
}

func microMem(m map[string]float64, budget time.Duration) {
	pl := noc.SCC(0)
	mm := mem.New(&pl)
	const words = 1 << 16
	base := mm.Alloc(words, 0)
	for i := 0; i < words; i++ {
		mm.WriteRaw(base+mem.Addr(i), uint64(i))
	}
	var ctx nopCtx
	m["mem.read_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += mm.Read(ctx, 0, base+mem.Addr(i%words))
		}
	})
	dst := make([]uint64, 1)
	m["mem.read_versioned_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			a := base + mem.Addr(i%words)
			vals, ver, _ := mm.ReadVersionedTo(ctx, 0, a, a, dst)
			sink += vals[0] + ver
		}
	})
	vc := mem.NewVClock(8)
	snap := make([]uint64, 0, 8)
	m["mem.vclock_snapshot_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			snap = vc.Snapshot(snap[:0])
		}
	})
	m["mem.vclock_tick_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += vc.Tick(i & 7)
		}
	})
}

// microOutbox stages a four-payload burst for two destinations and flushes
// it: one commit scatter on the coalescing plane.
func microOutbox(m map[string]float64, budget time.Duration) {
	eng := live.New(1)
	a := eng.Spawn("a", func(port.Port) {})
	b := eng.Spawn("b", func(port.Port) {})
	eng.Start()
	defer eng.Shutdown()
	var o port.Outbox
	payload := any(&benchPing{})
	ns, _ := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			o.Stage(a, 0, payload, 32, 0)
			o.Stage(b, 1, payload, 32, 0)
			o.Stage(a, 0, payload, 32, 0)
			o.Stage(b, 1, payload, 32, 0)
			o.Flush(func(e *port.OutEntry) { sink += uint64(len(e.Payloads)) })
		}
	})
	m["port.outbox_stage_flush_ns"] = ns
}

// stopSeq marks the payload that ends a pong loop.
const stopSeq = ^uint64(0)

// pinger sends n payloads to peer, awaiting each echo.
func pinger(self, peer port.Port, n int) {
	p := &benchPing{}
	for i := 0; i < n; i++ {
		self.Send(peer, p, 0)
		self.Recv()
	}
}

// timePings times batches of round trips on a pinger goroutine that takes
// batch sizes from start and reports each batch on done, then stops it.
func timePings(budget time.Duration, start chan<- int, done <-chan struct{}) float64 {
	ns, _ := timeLoop(budget, func(n int) {
		start <- n
		<-done
	})
	close(start)
	return ns
}

// ponger echoes every payload to peer until the stop payload arrives.
func ponger(self, peer port.Port) {
	for {
		msg := self.Recv()
		if msg.Payload.(*benchPing).Seq == stopSeq {
			return
		}
		self.Send(peer, msg.Payload, 0)
	}
}

// microLive measures the live mailbox: a round trip between two goroutine
// ports, and a selective receive that must skip 16 stashed messages.
func microLive(m map[string]float64, budget time.Duration) {
	eng := live.New(1)
	var a, b port.Port
	start := make(chan int) // batch sizes from timeLoop; closed to stop
	done := make(chan struct{})
	a = eng.Spawn("ping", func(p port.Port) {
		for n := range start {
			pinger(p, b, n)
			done <- struct{}{}
		}
		p.Send(b, &benchPing{Seq: stopSeq}, 0)
	})
	b = eng.Spawn("pong", func(p port.Port) { ponger(p, a) })
	var stashNs float64
	stashDone := make(chan struct{})
	eng.Spawn("stash", func(p port.Port) {
		defer close(stashDone)
		skip, want := &benchPing{Seq: 1}, &benchPing{Seq: 2}
		for i := 0; i < 16; i++ {
			p.Send(p, skip, 0)
		}
		match := func(msg port.Msg) bool { return msg.Payload == any(want) }
		stashNs, _ = timeLoop(budget, func(n int) {
			for i := 0; i < n; i++ {
				p.Send(p, want, 0)
				p.RecvMatch(match)
			}
		})
	})
	eng.Start()
	<-stashDone
	m["live.recvmatch_stash16_ns"] = stashNs
	m["live.pingpong_ns"] = timePings(budget, start, done)
	eng.Shutdown()
}

// microNet measures the cross-process transport with both ranks hosted in
// this process over one unix-socket link, as net-bank runs it: a payload
// round trip between two engine ports, and a remote word read (the state
// RPC every memory access of a non-home rank pays).
func microNet(m map[string]float64, budget time.Duration, outDir string) error {
	dir := fmt.Sprintf("%s/micro%d", outDir, os.Getpid())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrs := []string{"unix:" + dir + "/p0", "unix:" + dir + "/p1"}

	// Round trip. Both ranks spawn the same two actors in the same order
	// (replicated construction); actor i runs on rank i.
	var engs [2]*netbe.Engine
	for r := range engs {
		e, err := netbe.New(netbe.Config{Rank: r, Ranks: 2, Addrs: addrs, Seed: 1})
		if err != nil {
			return fmt.Errorf("micro: net engine: %w", err)
		}
		engs[r] = e
	}
	start := make(chan int)
	done := make(chan struct{})
	var ports [2][2]port.Port // [rank][actor]
	for r := range engs {
		r := r
		ports[r][0] = engs[r].Spawn("ping", 0, func(p port.Port) {
			for n := range start {
				pinger(p, ports[r][1], n)
				done <- struct{}{}
			}
			p.Send(ports[r][1], &benchPing{Seq: stopSeq}, 0)
		})
		ports[r][1] = engs[r].Spawn("pong", 1, func(p port.Port) { ponger(p, ports[r][0]) })
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := range engs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = engs[r].Start()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("micro: net start: %w", err)
		}
	}
	m["net.pingpong_ns"] = timePings(budget, start, done)
	for _, e := range engs {
		e.Shutdown()
	}
	for _, e := range engs {
		e.Close()
	}

	// Remote read: a two-rank system whose rank-1 worker reads words homed
	// on rank 0.
	addrs = []string{"unix:" + dir + "/s0", "unix:" + dir + "/s1"}
	var readNs float64
	faults := make([]any, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { faults[r] = recover() }()
			s, err := core.NewSystem(core.Config{
				Backend: core.BackendNet, TotalCores: 4, Policy: cm.FairCM, Seed: 1,
				Net: &core.NetConfig{Ranks: 2, Rank: r, Addrs: addrs},
			})
			if err != nil {
				panic(err)
			}
			words := core.NewTArray(s, core.Uint64Codec(), 1024, 1)
			s.SpawnWorkers(func(rt *core.Runtime) {
				if rt.AppIndex() != 1 {
					return
				}
				readNs, _ = timeLoop(budget, func(n int) {
					for i := 0; i < n; i++ {
						sink += words.At(i%1024).GetDirect(rt.Port(), rt.Core())
					}
				})
			})
			s.RunToCompletion()
		}(r)
	}
	wg.Wait()
	for r, f := range faults {
		if f != nil {
			return fmt.Errorf("micro: net state read: rank %d: %v", r, f)
		}
	}
	m["net.state_read_ns"] = readNs
	return nil
}

// microWire encodes and decodes one zero-valued payload of every registered
// type, and writes and reads one 64-byte frame.
func microWire(m map[string]float64, budget time.Duration) error {
	var payloads []any
	for _, t := range wire.RegisteredTypes() {
		if t.Kind() == reflect.Pointer {
			payloads = append(payloads, reflect.New(t.Elem()).Interface())
		} else {
			payloads = append(payloads, reflect.Zero(t).Interface())
		}
	}
	var encErr error
	var encoded [][]byte
	for _, p := range payloads {
		e := wire.NewEnc(nil)
		if err := wire.EncodePayload(e, p); err != nil {
			return fmt.Errorf("micro: %w", err)
		}
		encoded = append(encoded, e.Bytes())
	}
	per := float64(len(payloads))
	ns, _ := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			enc := wire.GetEnc()
			for _, p := range payloads {
				if err := wire.EncodePayload(enc, p); err != nil {
					encErr = err
				}
			}
			wire.PutEnc(enc)
		}
	})
	if encErr != nil {
		return fmt.Errorf("micro: %w", encErr)
	}
	m["wire.payload_encode_ns"] = ns / per
	var decErr error
	ns, _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			for _, b := range encoded {
				if _, err := wire.DecodePayload(wire.NewDec(b, nil)); err != nil {
					decErr = err
				}
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("micro: %w", decErr)
	}
	m["wire.payload_decode_ns"] = ns / per

	body := make([]byte, 64)
	var buf bytes.Buffer
	var frameErr error
	m["wire.frame_write_read_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := wire.WriteFrame(&buf, 1, body); err != nil {
				frameErr = err
			}
			if _, _, err := wire.ReadFrame(&buf); err != nil {
				frameErr = err
			}
		}
	})
	if frameErr != nil {
		return fmt.Errorf("micro: %w", frameErr)
	}
	return nil
}

// microSim measures the simulator kernel: one timed event (a proc advancing
// virtual time) and one message round trip between two procs.
func microSim(m map[string]float64, budget time.Duration) {
	m["sim.event_dispatch_ns"], _ = timeLoop(budget, func(n int) {
		k := sim.New(1)
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(time.Nanosecond)
			}
		})
		k.Run(sim.Infinity)
		k.Shutdown()
	})
	m["sim.send_recv_ns"], _ = timeLoop(budget, func(n int) {
		k := sim.New(1)
		var a, b *sim.Proc
		a = k.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Send(b, nil, time.Nanosecond)
				p.Recv()
			}
		})
		b = k.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Recv()
				p.Send(a, nil, time.Nanosecond)
			}
		})
		k.Run(sim.Infinity)
		k.Shutdown()
	})
}

func microTrace(m map[string]float64, budget time.Duration) {
	rec := trace.NewRecorder(0, trace.DefaultActorEvents)
	m["trace.emit_ns"], _ = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			rec.Emit(sim.Time(i), trace.KAttemptStart, uint64(i), 1, 2, 3)
		}
	})
}
