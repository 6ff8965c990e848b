package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dslock"
	"repro/internal/hist"
	"repro/internal/live"
	"repro/internal/mem"
	netbe "repro/internal/net"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/sim"
	"repro/internal/trace"
)

// System is one TM2C instance: a many-core with a DTM service partition and
// an application partition (Figure 1), executing on the backend selected by
// Config.Backend — the deterministic simulator, or the real-time port
// runtime as one process (live) or several (net). Build it with NewSystem,
// allocate shared data through Mem, start application code with
// SpawnWorkers, then call Run exactly once.
type System struct {
	cfg Config

	// K is the simulation kernel (nil on the live and net backends).
	K *sim.Kernel
	// host is the real-time port runtime of this process (nil on sim): the
	// live engine's, or this rank's share of a net system. It carries the
	// clock, fault capture, start gate and drain-then-kill shutdown.
	host *port.Host
	// neng is the cross-process engine (nil except on the net backend), for
	// the steps that are about ranks: rendezvous, state plane, drain
	// barriers, stats exchange. Every core another rank owns is a Stub port
	// that serializes sends onto that rank's connection.
	neng *netbe.Engine
	// spawn starts fn on a fresh execution port of the configured backend,
	// for the actor bound to a physical core. On sim the proc is scheduled
	// at the current virtual instant; on live the goroutine blocks until
	// Run starts the host; on net only the rank owning core runs fn — every
	// other rank gets a Stub with the same spawn-order ID (replicated
	// construction).
	spawn func(name string, core int, fn func(port.Port)) port.Port

	Mem  *mem.Memory
	Regs *mem.Registers

	// TxLifespans aggregates every committed transaction's lifespan (first
	// attempt start to commit, §4.1). Under a starvation-free CM the tail
	// stays bounded even on conflict-heavy workloads. Populated at
	// snapshot time from the per-runtime shards; valid after Run.
	TxLifespans hist.Histogram

	// CommitLatency aggregates the commit-phase latency of every committed
	// transaction: from commit entry through lock acquisition, persist and
	// the release burst. Valid after Run.
	CommitLatency hist.Histogram

	// Per-commit-phase latency breakdowns, populated like CommitLatency.
	// ScatterLatency covers the scatter-gather commit's send burst (batch
	// build through the last send), GatherLatency its response-await phase.
	// RevalidateLatency covers the TL2 commit's read-set revalidation
	// (successful ones; a failed revalidation aborts the commit). Valid
	// after Run.
	ScatterLatency    hist.Histogram
	GatherLatency     hist.Histogram
	RevalidateLatency hist.Histogram

	appCores []int // physical IDs of application cores
	svcCores []int // physical IDs of DTM cores (== appCores under Multitask)
	isSvc    map[int]bool

	nodes     []*dtmNode
	nodePorts []port.Port
	runtimes  []*Runtime
	dir       *placement.Directory // key→DTM-node directory (nil on raw-only systems)
	proto     protocol             // read/commit strategy (tx.go), chosen once by NewSystem
	clock     *mem.VClock          // TL2 global version clock (nil under the visible protocol)

	// workersDone counts the application workload loops (SpawnWorkers
	// bodies and SpawnRaw procs) still running; the live backend's Run
	// waits on it before tearing the service down. On the sim backend the
	// kernel's event queue already encodes quiescence, so it is never
	// waited on there.
	workersDone sync.WaitGroup

	// Flight-recorder state (Config.Trace; see tracing.go): the placement
	// directory's lane and the trace assembled at snapshot time.
	placeRec *trace.Recorder
	traceOut *trace.Trace

	deadline port.Time
	stats    Stats
	audited  bool          // EnableAudit was called (audit.go)
	commits  atomic.Uint64 // KCommit's sequence word, drawn only while tracing
	spawned  bool
	ran      bool

	// remoteLocked is the sum of the peers' leftover lock counts, learned
	// from the post-run stats exchange (net backend; see LockedAddrs).
	remoteLocked int
}

// NewSystem validates cfg and builds the system. Under Dedicated deployment
// the DTM service procs are spawned immediately; application workers are
// attached with SpawnWorkers.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		isSvc: make(map[int]bool),
	}
	switch cfg.Backend {
	case BackendLive:
		eng := live.New(cfg.Seed)
		s.host = eng.Host
		s.spawn = func(name string, _ int, fn func(port.Port)) port.Port { return eng.Spawn(name, fn) }
	case BackendNet:
		sess := cfg.Net.Session
		if sess < 0 {
			sess = netbe.NextSession()
		}
		eng, err := netbe.New(netbe.Config{
			Rank:    cfg.Net.Rank,
			Ranks:   cfg.Net.Ranks,
			Addrs:   cfg.Net.Addrs,
			Session: sess,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		s.neng, s.host = eng, eng.Host
		s.spawn = func(name string, core int, fn func(port.Port)) port.Port {
			return eng.Spawn(name, s.rankOf(core), fn)
		}
	default:
		s.K = sim.New(cfg.Seed)
		s.spawn = func(name string, _ int, fn func(port.Port)) port.Port {
			return s.K.Spawn(name, func(p *sim.Proc) { fn(p) })
		}
	}
	// The platform's price list — controller queues, remote-atomic and
	// message latencies (send) — runs only where time is virtual. What a
	// modelled cost means in real time is HostPort.Advance's decision alone.
	if pl := &s.cfg.Platform; s.K != nil {
		s.Mem, s.Regs = mem.New(pl), mem.NewRegisters(pl)
	} else {
		s.Mem, s.Regs = mem.NewRealtime(pl), mem.NewRealtimeRegisters(pl.NumCores())
	}
	s.proto = &visibleProto{}
	if cfg.Protocol == ProtocolTL2 {
		s.proto, s.clock = &tl2Proto{}, mem.NewVClock(tl2ClockShards)
	}

	if cfg.Deployment == Multitask {
		for c := 0; c < cfg.TotalCores; c++ {
			s.appCores = append(s.appCores, c)
			s.svcCores = append(s.svcCores, c)
			s.isSvc[c] = true
		}
	} else {
		// Spread the service cores evenly across the core list (and hence
		// across the mesh) so neither partition clusters in one corner.
		total, svc := cfg.TotalCores, cfg.ServiceCores
		for c := 0; c < total; c++ {
			if ((c+1)*svc)/total > (c*svc)/total {
				s.svcCores = append(s.svcCores, c)
				s.isSvc[c] = true
			} else {
				s.appCores = append(s.appCores, c)
			}
		}
	}
	for i, c := range s.svcCores {
		s.nodes = append(s.nodes, &dtmNode{s: s, idx: i, core: c, table: dslock.NewTable(), endedTo: make([]uint64, cfg.TotalCores)})
	}
	if len(s.nodes) > 0 {
		// The stripe universe derives from the memory size (one region per
		// controller, memWords words each) so far-apart addresses can never
		// alias onto one stripe; the cluster map wires each node's
		// mesh quadrant / socket for the locality accounting and the hier
		// policy's co-mapping bias.
		clusters := make([]int, len(s.nodes))
		for i, n := range s.nodes {
			clusters[i] = s.cfg.Platform.ClusterOf(n.core)
		}
		dir, err := placement.New(placement.Config{
			Nodes:       len(s.nodes),
			Kind:        cfg.Placement,
			Regions:     cfg.Platform.MCCount(),
			RegionWords: memWords,
			Clusters:    clusters,
			EvalEvery:   cfg.RepartitionEpoch,
		})
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	s.setupTrace()
	s.nodePorts = make([]port.Port, len(s.nodes))
	if cfg.Deployment == Dedicated {
		for _, n := range s.nodes {
			n := n
			s.nodePorts[n.idx] = s.spawn(fmt.Sprintf("dtm%d", n.core), n.core, n.serveLoop)
		}
	}
	return s, nil
}

// rankOf maps a physical core to the rank hosting it on the net backend:
// contiguous groups, core c on rank c*Ranks/TotalCores. Only meaningful
// when cfg.Net is set.
func (s *System) rankOf(core int) int {
	return core * s.cfg.Net.Ranks / s.cfg.TotalCores
}

// localCore reports whether core's execution contexts run in this process
// (always true off the net backend).
func (s *System) localCore(core int) bool {
	return s.neng == nil || s.rankOf(core) == s.cfg.Net.Rank
}

// Config returns the normalized configuration.
func (s *System) Config() Config { return s.cfg }

// Backend returns the execution backend the system runs on.
func (s *System) Backend() Backend { return s.cfg.Backend }

// Platform returns the system's timing model.
func (s *System) Platform() *noc.Platform { return &s.cfg.Platform }

// NumAppCores returns the number of application cores.
func (s *System) NumAppCores() int { return len(s.appCores) }

// NumServiceCores returns the number of DTM nodes.
func (s *System) NumServiceCores() int { return len(s.svcCores) }

// AppCores returns the physical IDs of the application cores.
func (s *System) AppCores() []int { return append([]int(nil), s.appCores...) }

// SpawnWorkers starts one application worker per app core. The worker
// receives the core's Runtime and typically loops until Runtime.Stopped.
// Under Multitask deployment the same proc also serves the core's DTM node:
// incoming requests are handled whenever the application blocks or reaches a
// transaction boundary.
func (s *System) SpawnWorkers(worker func(rt *Runtime)) {
	if s.spawned {
		panic("core: SpawnWorkers called twice")
	}
	if len(s.nodes) == 0 {
		panic("core: SpawnWorkers on a raw-only system (ServiceCores: -1)")
	}
	s.spawned = true
	for i, c := range s.appCores {
		rt := &Runtime{
			s:       s,
			core:    c,
			appIdx:  i,
			cluster: s.cfg.Platform.ClusterOf(c),
			stats:   CoreStats{Core: c},
		}
		if s.cfg.Deployment == Multitask {
			rt.node = s.nodes[i] // svcCores == appCores, same index
		}
		if s.cfg.Trace != nil {
			rt.rec = trace.NewRecorder(appActor(c), s.cfg.Trace.ActorEvents)
		}
		s.runtimes = append(s.runtimes, rt)
	}
	for _, rt := range s.runtimes {
		rt := rt
		if s.localCore(rt.core) {
			// Remote cores never run their worker here, so they must not
			// count toward this rank's drain (the DONE barrier aligns the
			// ranks afterwards).
			s.workersDone.Add(1)
		}
		p := s.spawn(fmt.Sprintf("app%d", rt.core), rt.core, func(p port.Port) {
			rt.initLocal()
			func() {
				// Mark the workload finished even if the worker panics, so
				// a live Run can surface the fault instead of hanging, and
				// absorb the live drain kill (see liveDrainExpired).
				defer s.workersDone.Done()
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(liveDrainKill); !ok {
							panic(r)
						}
					}
					rt.sendCarry() // the last attempt's releases
					rt.blockingHook()
				}()
				worker(rt)
			}()
			if rt.node != nil {
				// Keep serving DTM requests after the workload finishes.
				rt.node.serveLoop(p)
			}
		})
		// Install the port before any worker starts running: peers read it
		// to address barrier traffic (and, under Multitask, DTM requests),
		// and on the live backend workers run concurrently — assigning it
		// inside the goroutine would race the first Barrier. The sim
		// backend's Spawn returns before the proc runs, and the live
		// engine's goroutines block until Run, so this is always ordered.
		rt.proc = p
		if rt.node != nil {
			s.nodePorts[rt.node.idx] = p
		}
	}
}

// SpawnRaw starts one plain execution port per application core, without
// the transactional runtime. Non-transactional baselines (sequential code,
// the global-lock bank) use it; they access Mem and Regs directly and
// report completed operations through AddOps.
func (s *System) SpawnRaw(worker func(p Port, core int)) {
	if s.spawned {
		panic("core: SpawnRaw after workers already spawned")
	}
	s.spawned = true
	for _, c := range s.appCores {
		c := c
		if s.localCore(c) {
			s.workersDone.Add(1)
		}
		s.spawn(fmt.Sprintf("raw%d", c), c, func(p port.Port) {
			defer s.workersDone.Done()
			worker(p, c)
		})
	}
}

// AddOps records n completed application-level operations (used by
// non-transactional baselines, which may run concurrently on the live
// backend; transactional workers use Runtime.AddOps).
func (s *System) AddOps(n int) {
	atomic.AddUint64(&s.stats.Ops, uint64(n))
}

// Deadline returns the stop time (set by Run): virtual on sim, monotonic
// nanoseconds since Run on live.
func (s *System) Deadline() port.Time { return s.deadline }

// Run executes the workload until the deadline d — virtual time on the sim
// backend, wall-clock time on live — then lets in-flight transactions drain
// (workers observe Stopped and exit, so no new work starts), snapshots the
// statistics, and tears the machine down. The graceful drain guarantees
// that shared memory is never left with a half-persisted write set. Run
// must be called exactly once.
func (s *System) Run(d time.Duration) *Stats {
	if d <= 0 {
		panic("core: Run with non-positive duration")
	}
	// Either cap lets the drain tail fit one last long transaction (e.g. a
	// full bank balance scan) while keeping a pathological livelock or
	// stall among the final in-flight transactions from hanging the host
	// process: 6x the deadline in virtual time, a wall-clock watchdog in
	// real time.
	return s.run(port.Time(d), port.Time(d)*6, 20*d+10*time.Second)
}

// RunToCompletion executes until every worker has finished (all finite
// workloads done). Tests and fixed-operation-count workloads use it. On the
// sim backend it drains the event queue; on live it waits for the worker
// goroutines.
func (s *System) RunToCompletion() *Stats {
	return s.run(port.Infinity, port.Infinity, 5*time.Minute)
}

// run is the one run path: the kernel's event loop up to simCap on sim, the
// real-time runtime under a watchdog otherwise.
func (s *System) run(deadline, simCap port.Time, watchdog time.Duration) *Stats {
	if s.ran {
		panic("core: Run called twice")
	}
	s.ran = true
	s.deadline = deadline
	if s.host != nil {
		s.runRealtime(watchdog)
	} else {
		s.K.Run(simCap)
		s.snapshot(s.K.Now())
		s.K.Shutdown()
	}
	return &s.stats
}

// memWords is the per-memory-controller-region word capacity the placement
// directory's stripe universe covers: 64M words per region. An address
// beyond it panics at directory resolution instead of silently aliasing onto
// a low stripe.
const memWords = 1 << 26

// liveDrainExpired reports whether a deadline-bounded real-time run is past
// its drain window (6x the deadline, like the sim backend's hard cap in
// Run): transactions that are still aborting then are killed at their next
// retry boundary so the drain terminates even under livelock-prone policies.
func (s *System) liveDrainExpired() bool {
	return s.host != nil && s.deadline != port.Infinity && s.host.Now() >= s.deadline*6
}

// runRealtime drives one run on the real-time port runtime — the whole
// system on live, this rank's share of it on net: release the goroutines,
// wait for every local workload loop to finish on its own (bounded by the
// watchdog), then drain and kill the service loops and snapshot. Shutdown
// re-raises the first worker panic, so faults surface to Run's caller
// exactly like sim proc panics do.
//
// A net rank adds the steps that are about ranks, and their order is what
// makes the lock tables quiesce empty across process boundaries: bind the
// state plane and rendezvous with the peers before anything runs; after the
// local workers, the DONE barrier (no process can issue new requests) and
// the DRAIN barrier (per-connection FIFO means every release already
// reached its destination mailbox) before the local drain-and-kill; and
// last the stats exchange, so every rank holds the merged totals.
func (s *System) runRealtime(watchdog time.Duration) {
	if s.neng != nil {
		s.neng.BindState(s.Mem, s.Regs, s.rankOf)
		if err := s.neng.Start(); err != nil {
			panic(err)
		}
	} else {
		s.host.Start()
	}
	done := make(chan struct{})
	go func() {
		s.workersDone.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(watchdog):
		if f := s.host.Fault(); f != nil {
			panic(f)
		}
		panic(fmt.Sprintf("core: %v backend: local workers failed to drain within %v", s.cfg.Backend, watchdog))
	}
	if s.neng != nil {
		// Peers may lag by their own drain tails; give them the same budget.
		if err := s.neng.BarrierDone(watchdog); err != nil {
			panic(err)
		}
		if err := s.neng.BarrierDrain(30 * time.Second); err != nil {
			panic(err)
		}
	}
	dur := s.host.Now()
	s.host.Shutdown()
	s.snapshot(dur)
	if s.neng != nil {
		s.mergeNetStats()
		s.neng.Close()
	}
}

// netShare is one rank's contribution to the merged post-run statistics.
type netShare struct {
	Stats  Stats
	Locked int
}

// mergeNetStats runs the symmetric post-run stats exchange: every rank
// broadcasts its local share and folds in every peer's, so all ranks
// finish holding identical totals. Replicated construction makes the
// merge elementwise — every rank's PerCore and NodeLoad cover all cores
// and nodes, with zeros for the remote ones. Latency histograms are the
// exception: they stay local-only (per-rank), since serializing full
// histograms dwarfs the counters and no cross-rank consumer needs them.
func (s *System) mergeNetStats() {
	local, err := json.Marshal(netShare{Stats: s.stats, Locked: s.LockedAddrs()})
	if err != nil {
		panic(err)
	}
	shares, err := s.neng.ExchangeStats(local, 30*time.Second)
	if err != nil {
		panic(err)
	}
	for _, b := range shares {
		var o netShare
		if err := json.Unmarshal(b, &o); err != nil {
			panic(fmt.Errorf("core: bad stats share from peer: %w", err))
		}
		s.stats.Commits += o.Stats.Commits
		s.stats.Aborts += o.Stats.Aborts
		s.stats.Ops += o.Stats.Ops
		s.stats.addShard(&o.Stats)
		if o.Stats.Duration > s.stats.Duration {
			s.stats.Duration = o.Stats.Duration
		}
		for i, v := range o.Stats.NodeLoad {
			if i < len(s.stats.NodeLoad) {
				s.stats.NodeLoad[i] += v
			}
		}
		for i, pc := range o.Stats.PerCore {
			if i < len(s.stats.PerCore) {
				s.stats.PerCore[i].Commits += pc.Commits
				s.stats.PerCore[i].Aborts += pc.Aborts
				s.stats.PerCore[i].Ops += pc.Ops
			}
		}
		s.remoteLocked += o.Locked
	}
}

// snapshot merges the per-runtime and per-node counter shards into the
// run's Stats. It must run after the machine quiesced (kernel drained or
// every goroutine joined), so no shard is concurrently written.
func (s *System) snapshot(d port.Time) {
	s.stats.Duration = d
	for _, rt := range s.runtimes {
		s.stats.Commits += rt.stats.Commits
		s.stats.Aborts += rt.stats.Aborts
		s.stats.Ops += rt.stats.Ops
		s.stats.PerCore = append(s.stats.PerCore, rt.stats)
		s.stats.addShard(&rt.shard)
		s.TxLifespans.Merge(&rt.life)
		s.CommitLatency.Merge(&rt.commitLat)
		s.ScatterLatency.Merge(&rt.scatterLat)
		s.GatherLatency.Merge(&rt.gatherLat)
		s.RevalidateLatency.Merge(&rt.revalLat)
	}
	for _, n := range s.nodes {
		s.stats.NodeLoad = append(s.stats.NodeLoad, n.reqs)
		s.stats.addShard(&n.shard)
	}
	if s.neng != nil {
		s.stats.StateRPCs = s.neng.StateRPCs()
	}
	if s.dir != nil {
		s.stats.RepartitionRounds = s.dir.Epochs
		s.stats.PlacementEpochs, s.stats.AwakeEpochs = s.dir.Evaluated, s.dir.AwakeEpochs
		s.stats.Migrations = s.dir.Migrations
		s.stats.Handoffs = s.dir.Handoffs
		s.stats.MaterializedLeaves = s.dir.HeatStripes()
		s.stats.LocalAccesses, s.stats.RemoteAccesses = s.dir.AccessLocality()
	}
	s.assembleTrace()
}

// Stats returns the snapshot taken by Run. Valid only after Run.
func (s *System) Stats() *Stats { return &s.stats }

// LockedAddrs returns how many addresses still hold at least one lock
// across all DTM nodes. After a fully drained run it must be zero: every
// commit and every abort releases all of its locks. Tests use it as a
// lock-leak detector (on both backends — the live shutdown drains every
// service mailbox before killing it, so pending releases are applied).
func (s *System) LockedAddrs() int {
	total := 0
	for _, n := range s.nodes {
		total += n.table.Size()
	}
	return total + s.remoteLocked
}

// Placement returns the key→DTM-node directory (nil on raw-only systems).
func (s *System) Placement() *placement.Directory { return s.dir }

// recvPeers returns how many peers the receiving core polls for incoming
// messages: the size of the opposite partition under Dedicated deployment,
// everyone under Multitask.
func (s *System) recvPeers(dstCore int) int {
	if s.cfg.Deployment == Multitask {
		return s.cfg.TotalCores - 1
	}
	if s.isSvc[dstCore] {
		return len(s.appCores)
	}
	return len(s.svcCores)
}

// send transmits payload from srcCore (running on port p) to dstPort on
// dstCore, charging the platform's message latency on sim (real time has no
// use for a delay and none is computed). The message counters land in the
// sender's shard st; rec is the sender's flight-recorder lane (nil when
// tracing is off).
func (s *System) send(st *Stats, rec *trace.Recorder, p port.Port, srcCore int, dstPort port.Port, dstCore int, payload any, nbytes int) {
	if rec != nil {
		rec.Emit(p.Now(), trace.KWireSend, 0, uint64(dstCore), uint64(nbytes), 0)
	}
	var delay time.Duration
	if s.K != nil {
		delay = s.cfg.Platform.MsgDelay(srcCore, dstCore, nbytes, s.recvPeers(dstCore))
	}
	p.Send(dstPort, payload, delay)
	st.Msgs++
	st.WireMsgs++
	st.MsgBytes += uint64(nbytes)
}

// compute scales a nominal duration to the platform.
func (s *System) compute(d time.Duration) time.Duration {
	return s.cfg.Platform.Compute(d)
}
