// Package core implements the TM2C runtime: the APP service (transactional
// wrappers and commit protocol, §3.3), the DTM service (DS-Lock request
// handling with distributed contention management, §3.2/§4), the two
// deployment strategies (§3.1), and the elastic transaction extension (§6).
//
// A System wires a many-core — execution ports from one of three backends
// (internal/sim, internal/live, internal/net; all reached through
// internal/port), a shared memory (internal/mem) and a platform description
// (internal/noc) — to a set of DTM nodes and application runtimes.
// Application code runs inside worker ports and uses the Tx API; every
// shared access is transparently turned into message-passing lock
// acquisition against the responsible DTM node, exactly following
// Algorithms 1-4 of the paper. The platform's latencies are a price list
// that runs only where time is virtual (NewSystem decides, from
// Config.Backend).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cm"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/trace"
)

// Backend selects the execution backend a System runs on. The whole DTM
// protocol is written against the Port interface, so the same code runs on
// every backend; what changes is what a "core" physically is and what time
// means. See the package comments of internal/sim and internal/live.
type Backend uint8

const (
	// BackendSim (the default) runs on the deterministic discrete-event
	// simulator: virtual time, modeled platform latencies, bit-for-bit
	// reproducible for a given seed, full serializability audit available.
	BackendSim Backend = iota
	// BackendLive runs every application core and DTM node as a real
	// goroutine: wall-clock time, channel messaging, hardware speed.
	// Interleavings are scheduler-dependent, so runs are not reproducible
	// and the audit is unavailable; correctness is checked with invariants
	// (conservation, lock-table emptiness at quiesce, -race).
	BackendLive
	// BackendNet runs the system across separate OS processes: every rank
	// builds the identical System from the identical Config, hosts the cores
	// it owns as live-style goroutines, and reaches the others over
	// length-prefixed binary frames on TCP or Unix sockets (internal/net,
	// internal/wire). Like live, wall-clock time and invariant checking; in
	// addition the real failure surfaces (per-RPC deadlines, reconnects,
	// drain-then-close shutdown) are exercised.
	BackendNet
)

func (b Backend) String() string {
	switch b {
	case BackendLive:
		return "live"
	case BackendNet:
		return "net"
	}
	return "sim"
}

// ParseBackend parses a backend name (sim|live|net).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "sim":
		return BackendSim, nil
	case "live":
		return BackendLive, nil
	case "net":
		return BackendNet, nil
	}
	return BackendSim, fmt.Errorf("core: unknown backend %q (want sim|live|net)", s)
}

// NetConfig places one process (rank) of a cross-process system. All ranks
// must construct their System from the same Config differing only in Rank:
// the net backend relies on replicated construction for its port table, so
// every field that shapes spawn order must match.
type NetConfig struct {
	// Ranks is the number of cooperating processes (>= 2).
	Ranks int
	// Rank is this process's index in [0, Ranks).
	Rank int
	// Addrs lists every rank's listen address, indexed by rank. Two forms:
	// "unix:<path>" for Unix domain sockets, "host:port" for TCP (loopback
	// by default in the CLI front-ends).
	Addrs []string
	// Session distinguishes successive systems multiplexed over one address
	// base (a bench process runs many systems back to back). Ranks must
	// agree on the session of each system; -1 asks the backend to draw from
	// its per-process counter, which stays aligned across ranks because all
	// ranks construct the same deterministic sequence of systems.
	Session int
}

// Protocol selects the read/commit protocol transactions run under. The
// whole DTM plane (placement, contention management, message transports) is
// shared; what changes is when the network is consulted.
type Protocol uint8

const (
	// ProtocolVisible (the default) is TM2C's visible-read protocol: every
	// read acquires a read lock from the responsible DTM node (one
	// request/grant round trip per first read of an object), writes acquire
	// write locks lazily at commit, and conflicts are resolved eagerly by
	// the distributed contention managers. Bit-identical to the pre-TL2
	// engine; all figure fingerprints pin this mode.
	ProtocolVisible Protocol = iota
	// ProtocolTL2 is the invisible-read mode in the TL2 style: reads are
	// local (read the object and its version, validate against the
	// transaction's snapshot of the sharded global version clock — zero
	// wire messages), writes buffer locally, and commit does the only
	// network work: scatter write-lock acquisition, a clock tick, read-set
	// revalidation against versions piggybacked on the grants, write-back,
	// release. Doomed reads (version newer than the snapshot, or a write-
	// back in flight) abort immediately, which is what preserves opacity.
	// Elastic kinds degenerate to plain TL2 (reads are already invisible);
	// irrevocable transactions are unsupported (invisible readers cannot be
	// blocked by exclusivity tokens).
	ProtocolTL2
)

func (p Protocol) String() string {
	if p == ProtocolTL2 {
		return "tl2"
	}
	return "visible"
}

// ParseProtocol parses a protocol name (visible|tl2).
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "visible":
		return ProtocolVisible, nil
	case "tl2":
		return ProtocolTL2, nil
	}
	return ProtocolVisible, fmt.Errorf("core: unknown protocol %q (want visible|tl2)", s)
}

// Deployment selects how the APP and DTM services share the cores (§3.1).
type Deployment uint8

const (
	// Dedicated assigns disjoint core sets to the application and the DTM
	// service. This is TM2C's default strategy.
	Dedicated Deployment = iota
	// Multitask co-locates both services on every core, libtask-style: the
	// DTM part of a core only runs when the application part yields, so
	// service requests can wait behind local computation (Figure 2).
	Multitask
)

func (d Deployment) String() string {
	if d == Multitask {
		return "multitask"
	}
	return "dedicated"
}

// AcquireMode selects when write locks are acquired (§3.3).
type AcquireMode uint8

const (
	// Lazy defers write-lock acquisition to commit time (write-back).
	// TM2C's default: it shortens the write-lock hold window and enables
	// write-lock batching.
	Lazy AcquireMode = iota
	// Eager acquires the write lock inside the txwrite wrapper, for the
	// Figure 4(c) comparison.
	Eager
)

func (m AcquireMode) String() string {
	if m == Eager {
		return "eager"
	}
	return "lazy"
}

// TxKind selects the transactional model for a transaction (§6).
type TxKind uint8

const (
	// Normal transactions acquire visible read locks on every read.
	Normal TxKind = iota
	// ElasticEarly transactions may release read locks early through
	// Tx.EarlyRelease (the DSTM-style explicit release implementation).
	ElasticEarly
	// ElasticRead transactions take no read locks at all: consecutive-read
	// atomicity is enforced by re-reading a small validation window from
	// shared memory.
	ElasticRead
	// ReadOnly transactions declare up front that they will not write:
	// reads follow the normal visible read-lock protocol, writes panic, and
	// the attempt path skips write-set allocation and the entire commit-time
	// lock machinery — a declared read-only commit only fires its release
	// burst (no commit bookkeeping, no status CAS, no persist). Committed
	// ones are counted in Stats.ReadOnlyCommits.
	ReadOnly
)

func (k TxKind) String() string {
	switch k {
	case ElasticEarly:
		return "elastic-early"
	case ElasticRead:
		return "elastic-read"
	case ReadOnly:
		return "read-only"
	default:
		return "normal"
	}
}

// costs are the nominal software costs of the runtime, defined for the SCC's
// 533 MHz cores and scaled by the platform's compute factor.
var costs = struct {
	TxBegin    time.Duration // starting a transaction attempt
	Wrapper    time.Duration // per transactional read/write wrapper call
	Commit     time.Duration // commit bookkeeping
	SvcBase    time.Duration // DTM: per-message dispatch
	SvcLock    time.Duration // DTM: per lock acquire/conflict check
	SvcRelease time.Duration // DTM: per lock release
	// MultitaskSwitch is charged per DTM request served by a multitasked
	// core: the libtask-style coroutine switch into the service task and
	// back, plus the cache disturbance it causes (§3.1). Dedicated
	// deployments never pay it.
	MultitaskSwitch time.Duration
	// ClockSnap and ClockTick are the TL2 version-clock register-plane
	// costs: loading the per-shard counters at transaction begin, and the
	// atomic increment of one shard at an update commit. The visible
	// protocol never pays either.
	ClockSnap time.Duration
	ClockTick time.Duration
}{
	TxBegin:         200 * time.Nanosecond,
	Wrapper:         150 * time.Nanosecond,
	Commit:          300 * time.Nanosecond,
	SvcBase:         200 * time.Nanosecond,
	SvcLock:         300 * time.Nanosecond,
	SvcRelease:      120 * time.Nanosecond,
	MultitaskSwitch: 5 * time.Microsecond,
	ClockSnap:       150 * time.Nanosecond,
	ClockTick:       250 * time.Nanosecond,
}

// Config describes one TM2C system instance.
type Config struct {
	// Platform is the timing model (default: SCC setting 0). On the live
	// and net backends it still shapes the topology (core counts, memory
	// regions, clusters, nearest controllers) but its latencies are neither
	// charged nor computed.
	Platform noc.Platform
	// Backend selects the execution backend: the deterministic simulator
	// (default), the real-concurrency goroutine backend, or the
	// cross-process net backend.
	Backend Backend
	// Protocol selects the read/commit protocol: the paper's visible-read
	// default, or the invisible-read TL2 mode.
	Protocol Protocol
	// Seed drives all pseudo-randomness.
	Seed uint64
	// TotalCores is the number of cores used (default: all platform cores).
	TotalCores int
	// ServiceCores is the size of the DTM partition in Dedicated mode
	// (default: half the cores, the paper's standard split). Ignored under
	// Multitask, where every core hosts both services. The special value
	// -1 builds a system with no DTM service at all, for purely
	// non-transactional baselines (every core is an application core;
	// only SpawnRaw may be used).
	ServiceCores int
	// Deployment selects Dedicated (default) or Multitask.
	Deployment Deployment
	// Policy is the contention manager (default NoCM, as in the paper).
	Policy cm.Policy
	// Acquire selects lazy (default) or eager write-lock acquisition.
	Acquire AcquireMode
	// Coalesce does nothing. It once merged a burst's same-destination
	// payloads into one wire message; write-lock batching already holds
	// every burst to one payload per node, so it merged nothing and was
	// retired (docs/RETIRED.md, ablbatch). Every payload is its own wire
	// message. The field stays only for the repository benchmark, which
	// still sets it.
	Coalesce bool
	// Placement selects the object→DTM-node placement policy: the static
	// multiplicative hash of §3.2 (default) or the hierarchical adaptive
	// repartitioner with locality-aware co-mapping (internal/placement).
	Placement placement.Kind
	// RepartitionEpoch is the adaptive placement epoch length: the number
	// of recorded lock-key accesses between repartition evaluations
	// (default 2048). Static policies ignore it.
	RepartitionEpoch int
	// Trace enables the flight recorder (internal/trace): every runtime,
	// DTM node and the placement directory gets a ring buffer of fixed-size
	// event records, assembled into a Trace at snapshot time (System.Trace,
	// and Trace.Sink if set). Nil — the default — disables tracing; every
	// emit site then costs exactly one nil comparison, which is what keeps
	// trace-off runs bit-identical to the pinned fingerprints.
	Trace *trace.Options
	// Net places this process within a cross-process system. Required (and
	// only meaningful) on BackendNet.
	Net *NetConfig
	// RPCDeadline bounds every awaited lock-response round trip on the net
	// backend: an RPC that outlives it aborts the attempt (ReasonTimeout,
	// Stats.RPCTimeouts) with conservative lock release, mapping peer
	// stalls and broken connections onto the ordinary retry machinery.
	// Defaults to 2s on net; ignored on sim/live, whose transports cannot
	// lose messages. A negative value is rejected on every backend.
	RPCDeadline time.Duration
}

func (c *Config) normalize() error {
	if c.Backend > BackendNet {
		return fmt.Errorf("core: unknown backend %d", c.Backend)
	}
	if c.Protocol > ProtocolTL2 {
		return fmt.Errorf("core: unknown protocol %d", c.Protocol)
	}
	if c.Deployment > Multitask {
		return fmt.Errorf("core: unknown deployment %d", c.Deployment)
	}
	if c.Acquire > Eager {
		return fmt.Errorf("core: unknown acquire mode %d", c.Acquire)
	}
	if c.Policy > cm.FairCM {
		return fmt.Errorf("core: unknown contention manager %d", c.Policy)
	}
	if c.RPCDeadline < 0 {
		return fmt.Errorf("core: negative RPC deadline %v", c.RPCDeadline)
	}
	if c.Backend == BackendNet {
		n := c.Net
		if n == nil {
			return errors.New("core: net backend requires Config.Net")
		}
		if n.Ranks < 2 {
			return fmt.Errorf("core: net backend needs >= 2 ranks, got %d", n.Ranks)
		}
		if n.Rank < 0 || n.Rank >= n.Ranks {
			return fmt.Errorf("core: net rank %d out of range [0,%d)", n.Rank, n.Ranks)
		}
		if len(n.Addrs) != n.Ranks {
			return fmt.Errorf("core: net backend needs %d addresses, got %d", n.Ranks, len(n.Addrs))
		}
		if c.Protocol == ProtocolTL2 {
			return errors.New("core: tl2 protocol needs a shared version clock; unsupported on the net backend")
		}
		if c.Placement != placement.Hash {
			return errors.New("core: adaptive placement needs a shared directory; unsupported on the net backend")
		}
		if c.RPCDeadline == 0 {
			c.RPCDeadline = 2 * time.Second
		}
	}
	if c.Platform.NumCores() == 0 {
		c.Platform = noc.SCC(0)
	}
	if c.TotalCores == 0 {
		c.TotalCores = c.Platform.NumCores()
	}
	if c.TotalCores < 2 {
		return errors.New("core: need at least 2 cores")
	}
	if c.TotalCores > c.Platform.NumCores() {
		return fmt.Errorf("core: %d cores requested but platform has %d",
			c.TotalCores, c.Platform.NumCores())
	}
	if c.Deployment == Dedicated {
		switch {
		case c.ServiceCores == -1:
			c.ServiceCores = 0 // raw-only system
		case c.ServiceCores == 0:
			c.ServiceCores = c.TotalCores / 2
		}
		if c.ServiceCores < 0 || c.ServiceCores >= c.TotalCores {
			return fmt.Errorf("core: invalid service-core count %d of %d",
				c.ServiceCores, c.TotalCores)
		}
	}
	if c.Placement > placement.AdaptiveHier {
		return fmt.Errorf("core: unknown placement policy %d", c.Placement)
	}
	if c.RepartitionEpoch < 0 {
		return fmt.Errorf("core: negative repartition epoch %d", c.RepartitionEpoch)
	}
	return nil
}

// Stats are the counters of one run. All app-core counters are aggregated;
// PerCore holds the per-application-core breakdown.
type Stats struct {
	Commits uint64 // committed transactions
	Aborts  uint64 // aborted transaction attempts
	Ops     uint64 // application-level operations completed

	// ReadOnlyCommits counts the committed transactions that ran as the
	// declared ReadOnly kind (a subset of Commits). They take read locks but
	// never contribute write-lock requests or commit round trips.
	ReadOnlyCommits uint64

	// MaxAttempts is the most attempts any one operation needed (1 when
	// nothing ever aborted): the length of the longest retry storm, which
	// the sums above average away. Merged by max, not by sum.
	MaxAttempts uint64

	// UserAborts counts transactions withdrawn by the application through
	// Tx.Abort or a non-retry error returned from an Atomic body. They are
	// not retried and are counted separately from Aborts (which tracks
	// aborted attempts that go back around the retry loop).
	UserAborts uint64

	// AbortsByKind sub-classifies conflict aborts by the conflict kind the
	// losing lock request reported (indexed by cm.Kind). AbortReasons is
	// the complete taxonomy; this array refines its ReasonConflict bucket.
	AbortsByKind [3]uint64

	// AbortReasons partitions every abort — retried attempts and withdrawn
	// transactions alike — by why it died (indexed by trace.Reason:
	// conflict, revoked, doomed-read, stale-placement, user). Invariant:
	// the sum over AbortReasons equals Aborts + UserAborts.
	AbortReasons [trace.NumReasons]uint64

	// Message traffic. Msgs counts protocol payloads and WireMsgs physical
	// wire messages; every payload is its own wire message, so they are
	// equal. CoalescedPayloads is always 0: it stays only for the
	// repository benchmark, which still reports it (Config.Coalesce).
	Msgs              uint64
	MsgBytes          uint64
	WireMsgs          uint64
	CoalescedPayloads uint64
	ReadLockReqs      uint64
	WriteLockReqs     uint64
	ReleaseMsgs       uint64 // release messages sent on their own
	CarriedReleases   uint64 // releases that rode inside a lock request (reqLock.Rel)
	EarlyReleases     uint64
	Responses         uint64

	// CommitRoundTrips counts the awaited round-trip phases of commit-time
	// write-lock acquisition: one per scatter-gather phase, i.e. one per
	// commit attempt with a non-empty write set however many batches are in
	// flight (plus one per stale-placement re-scatter). Eager acquisition
	// pays its round trips inside the write wrappers and contributes zero
	// here.
	CommitRoundTrips uint64

	// DTM activity.
	Conflicts    uint64
	Revocations  uint64 // enemy aborts performed by CMs
	StaleRevokes uint64 // locks of already finished attempts revoked for a requester

	// The DTM nodes' remote register operations on lock holders: reads of
	// a holder's status register to learn whether its attempt has ended
	// (NodeEndedReads), answers to that question from the node's per-core
	// watermark with no read (NodeEndedKnown), and the contention
	// manager's Pending-to-Aborted CASes (NodeAbortCASes, abortEnemies).
	NodeEndedReads uint64
	NodeEndedKnown uint64
	NodeAbortCASes uint64

	// Placement activity (hier placement; see internal/placement).
	StaleNacks        uint64 // lock requests NACKed for stale placement resolution
	StaleNackHints    uint64 // stale-NACK retries steered by the piggybacked owner hint
	PlacementAborts   uint64 // attempts aborted after chasing migrating ownership too long
	RepartitionRounds uint64 // repartition rounds that initiated at least one migration
	PlacementEpochs   uint64 // epoch windows the directory closed
	AwakeEpochs       uint64 // of those, windows whose heat plane recorded per stripe
	Migrations        uint64 // stripe migrations initiated by the directory
	Handoffs          uint64 // stripe handoffs completed by DTM nodes

	// MaterializedLeaves is an end-of-run gauge, not a sum: the stripes
	// holding heat in the hier directory's stripe tier when the run ended
	// (placement.Directory.HeatStripes), zero once its heat plane sleeps. It
	// keeps the name of the retired leaf gauge for the repository benchmark,
	// which reads it.
	MaterializedLeaves int

	// Thread/data locality (hier placement, over the platform's clusters;
	// see noc.Platform.ClusterOf). A recorded access is local when the
	// accessor's cluster contains the owning DTM node. RemoteAccessRatio
	// summarizes; the hier policy's co-mapping exists to shrink it.
	LocalAccesses  uint64
	RemoteAccesses uint64

	// TL2 protocol activity (Protocol=tl2; all zero under the visible
	// default).
	LocalReads    uint64 // invisible reads served from local memory, zero wire messages
	DoomedReads   uint64 // reads aborted by snapshot validation (newer version or write-back in flight)
	Revalidations uint64 // commit-time read-set stripe re-checks
	ClockAdvances uint64 // version-clock ticks (one per update commit that reached write-back)

	// NodeLoad counts the requests served by each DTM node, by node index
	// (lock requests, releases and exclusivity traffic, including NACKed
	// ones). LoadImbalance summarizes it.
	NodeLoad []uint64

	// Irrevocables counts completed irrevocable transactions (§2
	// extension).
	Irrevocables uint64

	// RPCTimeouts counts awaited lock-response RPCs that exceeded
	// Config.RPCDeadline on the net backend (each one also aborts its
	// attempt under AbortReasons[ReasonTimeout]). Zero on sim/live.
	RPCTimeouts uint64

	// WinnerWaits counts the aborts after which a core waited for the
	// attempt its conflict NACK named as the winner to end (after every
	// NACK that names one), and WinnerWaitTime sums those waits.
	WinnerWaits    uint64
	WinnerWaitTime port.Time

	// EndedResends counts the lock requests sent again in the same attempt
	// because the attempt their conflict NACK named had already ended
	// (Runtime.winnerEnded).
	EndedResends uint64

	// The requesters' remote reads of a winner's status register, which
	// send no message: WinnerChecks after a conflict NACK named the winner
	// (Runtime.winnerEnded), WinnerPolls while the loser waits for it to end
	// before its next attempt (Runtime.awaitWinner).
	WinnerChecks uint64
	WinnerPolls  uint64

	// ReadAheadKeys counts the read locks a batched TArray scan request took
	// beyond the element that missed (Tx.readElem), and ReadAheadUnused
	// those of them the attempt never read: counted when the run that took
	// them breaks or the attempt ends.
	ReadAheadKeys   uint64
	ReadAheadUnused uint64

	// UpdateReads counts the reads that took their key's write lock because
	// the transaction's body wrote that read in its last two commits
	// (Tx.forUpdate), and UpdateReadsUnwritten those whose attempt committed
	// without writing the key: the predictor's misses. An attempt that
	// aborts says nothing about the guess, and is not counted there.
	UpdateReads          uint64
	UpdateReadsUnwritten uint64

	// StateRPCs counts the state-plane round trips the net backend issued:
	// word reads and write-backs forwarded to the rank-0 home, register
	// operations forwarded to the owning rank. They are synchronous socket
	// round trips that WireMsgs — the DTM message plane — does not see.
	// Zero on sim/live.
	StateRPCs uint64

	// Run length: virtual on the sim backend, wall-clock on live.
	Duration port.Time

	PerCore []CoreStats
}

// addShard folds one execution context's counter shard into s. Every
// runtime and DTM node accumulates into its own shard — the only thing
// that makes the live backend's concurrent increments race-free — and the
// post-quiesce snapshot merges them here. Every counter is a sum
// (MaxAttempts a max), so the merged totals are independent of merge order;
// TestAddShardMergesEveryCounter lists the fields the snapshot writes once.
func (s *Stats) addShard(o *Stats) {
	s.ReadOnlyCommits += o.ReadOnlyCommits
	s.MaxAttempts = max(s.MaxAttempts, o.MaxAttempts)
	s.UserAborts += o.UserAborts
	for i, v := range o.AbortsByKind {
		s.AbortsByKind[i] += v
	}
	for i, v := range o.AbortReasons {
		s.AbortReasons[i] += v
	}
	s.Msgs += o.Msgs
	s.MsgBytes += o.MsgBytes
	s.WireMsgs += o.WireMsgs
	s.ReadLockReqs += o.ReadLockReqs
	s.WriteLockReqs += o.WriteLockReqs
	s.ReleaseMsgs += o.ReleaseMsgs
	s.CarriedReleases += o.CarriedReleases
	s.EarlyReleases += o.EarlyReleases
	s.Responses += o.Responses
	s.CommitRoundTrips += o.CommitRoundTrips
	s.Conflicts += o.Conflicts
	s.Revocations += o.Revocations
	s.StaleRevokes += o.StaleRevokes
	s.NodeEndedReads += o.NodeEndedReads
	s.NodeEndedKnown += o.NodeEndedKnown
	s.NodeAbortCASes += o.NodeAbortCASes
	s.StaleNacks += o.StaleNacks
	s.StaleNackHints += o.StaleNackHints
	s.PlacementAborts += o.PlacementAborts
	s.LocalReads += o.LocalReads
	s.DoomedReads += o.DoomedReads
	s.Revalidations += o.Revalidations
	s.ClockAdvances += o.ClockAdvances
	s.Irrevocables += o.Irrevocables
	s.RPCTimeouts += o.RPCTimeouts
	s.WinnerWaits += o.WinnerWaits
	s.WinnerWaitTime += o.WinnerWaitTime
	s.EndedResends += o.EndedResends
	s.WinnerChecks += o.WinnerChecks
	s.WinnerPolls += o.WinnerPolls
	s.ReadAheadKeys += o.ReadAheadKeys
	s.ReadAheadUnused += o.ReadAheadUnused
	s.UpdateReads += o.UpdateReads
	s.UpdateReadsUnwritten += o.UpdateReadsUnwritten
	s.StateRPCs += o.StateRPCs
}

// CoreStats is the per-application-core breakdown.
type CoreStats struct {
	Core    int
	Commits uint64
	Aborts  uint64
	Ops     uint64
}

// Throughput returns completed operations per virtual millisecond.
func (s *Stats) Throughput() float64 {
	if s.Duration == 0 {
		return 0
	}
	return float64(s.Ops) / (float64(s.Duration) / 1e6)
}

// LoadImbalance returns the max/mean ratio of per-DTM-node served request
// counts: 1 means perfectly balanced, len(NodeLoad) means one node served
// everything. It returns 0 when no node served any request.
func (s *Stats) LoadImbalance() float64 {
	var max, total uint64
	for _, v := range s.NodeLoad {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(s.NodeLoad)) / float64(total)
}

// PayloadsPerWireMsg returns the average number of protocol payloads per
// physical wire message: 1, since every payload is its own wire message. It
// returns 0 when no message was sent.
func (s *Stats) PayloadsPerWireMsg() float64 {
	if s.WireMsgs == 0 {
		return 0
	}
	return float64(s.Msgs) / float64(s.WireMsgs)
}

// RemoteAccessRatio returns the fraction of recorded lock accesses whose
// owning DTM node sat outside the accessor's locality cluster: 0 means
// perfectly co-mapped, 1 means every access crossed clusters. It returns 0
// when locality was not tracked (static placement, or no cluster map).
func (s *Stats) RemoteAccessRatio() float64 {
	total := s.LocalAccesses + s.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(s.RemoteAccesses) / float64(total)
}

// CommitRate returns the fraction of attempts that committed, in percent.
func (s *Stats) CommitRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 100
	}
	return 100 * float64(s.Commits) / float64(total)
}
