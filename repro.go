// Package repro is TM2C-Go: a reproduction of "TM2C: a Software
// Transactional Memory for Many-Cores" (Gramoli, Guerraoui, Trigonakis,
// EuroSys 2012) as a Go library.
//
// TM2C runs transactions on a non-cache-coherent many-core by turning every
// shared access into message passing against a distributed lock service
// (DS-Lock), with fully decentralized contention management. This package is
// the public facade: it re-exports the supported surface of the internal
// packages — the simulated many-core (System), the transactional runtime
// (Runtime, Tx), the contention-manager policies, and the platform timing
// models (SCC under its five performance settings, and a 48-core Opteron
// multi-core).
//
// A minimal program, on the typed API (generic TVar/TArray over a word
// codec, error-based Atomic control flow):
//
//	sys, err := repro.NewSystem(repro.Config{Policy: repro.FairCM})
//	if err != nil { ... }
//	accts := repro.NewTArray(sys, repro.Uint64Codec(), 2, 100)
//	sys.SpawnWorkers(func(rt *repro.Runtime) {
//		for !rt.Stopped() {
//			err := rt.Atomic(func(tx *repro.Tx) error {
//				from := accts.Get(tx, 0)
//				if from == 0 {
//					tx.Abort(errors.New("insufficient funds")) // no retry
//				}
//				accts.Set(tx, 0, from-1)
//				accts.Set(tx, 1, accts.Get(tx, 1)+1)
//				return nil
//			})
//			_ = err
//			rt.AddOps(1)
//		}
//	})
//	stats := sys.Run(10 * time.Millisecond)
//	fmt.Printf("%.1f ops/ms, %.1f%% commit rate\n",
//		stats.Throughput(), stats.CommitRate())
//
// The word-level API (Tx.Read/Write over raw Addr, Runtime.Run) remains
// fully supported as the low-level substrate underneath the typed layer.
// Declared read-only transactions (Runtime.RunReadOnly/AtomicReadOnly) skip
// the whole commit-time write machinery and serialize at their last read.
//
// Config.Backend picks where a System runs. On the default sim backend time
// is virtual: Run executes the workload on a deterministic discrete-event
// simulation of the target platform, so results are reproducible bit-for-bit
// for a given Config.Seed. On the live and net backends the same protocol
// runs on real goroutines (net: spread over OS processes), durations are
// wall-clock and runs are not reproducible.
//
// See README.md: "Architecture" for the layers, "Reproducing the paper's
// figures" and "Ablations beyond the paper" for the experiments.
package repro

import (
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/port"
)

// Core system types.
type (
	// System is one simulated TM2C machine; see core.System.
	System = core.System
	// Config configures a System.
	Config = core.Config
	// Runtime is the per-application-core transactional runtime.
	Runtime = core.Runtime
	// Tx is one transaction attempt.
	Tx = core.Tx
	// Irrevocable is the handle of an irrevocable (pessimistic,
	// side-effect-capable) transaction; see Runtime.RunIrrevocable.
	Irrevocable = core.Irrevocable
	// Stats are the counters collected by a run.
	Stats = core.Stats
	// CoreStats is the per-core breakdown inside Stats.
	CoreStats = core.CoreStats
	// Deployment selects dedicated or multitasked service cores.
	Deployment = core.Deployment
	// AcquireMode selects lazy or eager write-lock acquisition.
	AcquireMode = core.AcquireMode
	// TxKind selects normal or elastic transactions.
	TxKind = core.TxKind
	// Policy is a contention-management policy.
	Policy = cm.Policy
	// PlacementKind selects the object→DTM-node placement policy.
	PlacementKind = placement.Kind
	// PlacementDirectory is the key→DTM-node directory of a System.
	PlacementDirectory = placement.Directory
	// Platform is a timing model (SCC setting or Opteron).
	Platform = noc.Platform
	// Addr is a word address in the simulated shared memory.
	Addr = mem.Addr
	// Time is a timestamp in nanoseconds: virtual on sim, monotonic in real
	// time.
	Time = port.Time
	// Port is one core's execution context on the configured backend
	// (used by SpawnRaw baselines and Runtime.Port); see core.Port.
	Port = core.Port
	// Backend selects the execution backend of a System: the
	// deterministic simulator, the real-concurrency goroutine backend, or
	// the cross-process net backend.
	Backend = core.Backend
	// NetConfig places one process within a cross-process (BackendNet)
	// system: rank, rank count, per-rank addresses, session.
	NetConfig = core.NetConfig
	// Protocol selects the read-visibility protocol of a System: visible
	// reads (per-read DTM round trips) or invisible-read TL2 (local reads
	// against a sharded version clock, commit-time validation).
	Protocol = core.Protocol
	// Rand is the deterministic per-core random source.
	Rand = port.Rand
)

// Deployment strategies (§3.1).
const (
	Dedicated = core.Dedicated
	Multitask = core.Multitask
)

// Execution backends. BackendSim is the deterministic discrete-event
// simulator (virtual time, reproducible); BackendLive runs every core as a
// real goroutine (wall-clock time, hardware speed, not reproducible);
// BackendNet spreads the cores over separate OS processes connected by
// length-prefixed binary frames (Config.Net places each process).
const (
	BackendSim  = core.BackendSim
	BackendLive = core.BackendLive
	BackendNet  = core.BackendNet
)

// Read-visibility protocols. ProtocolVisible is the paper's protocol —
// every first read of an object costs one DTM round trip and installs a
// visible read lock; ProtocolTL2 serves reads from a local version table
// validated against a sharded global version clock, moving all network
// work to commit time (see internal/core/tl2.go).
const (
	ProtocolVisible = core.ProtocolVisible
	ProtocolTL2     = core.ProtocolTL2
)

// Write-lock acquisition modes (§3.3).
const (
	Lazy  = core.Lazy
	Eager = core.Eager
)

// Transaction kinds (§3.3, §6). ReadOnly is the declared read-only kind:
// writes panic, the commit-time lock machinery is skipped entirely, and
// commits are counted in Stats.ReadOnlyCommits.
const (
	Normal       = core.Normal
	ElasticEarly = core.ElasticEarly
	ElasticRead  = core.ElasticRead
	ReadOnly     = core.ReadOnly
)

// Typed transactional layer: generic typed variables and arrays over the
// word-level substrate. See core.TVar for the full semantics.
type (
	// TVar is a typed transactional variable over one fixed-size object.
	TVar[T any] = core.TVar[T]
	// TArray is a typed transactional array of independently locked
	// elements.
	TArray[T any] = core.TArray[T]
	// WordCodec translates T to and from a fixed number of 64-bit words.
	WordCodec[T any] = core.WordCodec[T]
)

// Atomic control-flow errors (see Runtime.Atomic and Tx.Abort).
var (
	// ErrRetry, returned from an Atomic body, aborts the attempt and
	// retries it after the contention manager's backoff.
	ErrRetry = core.ErrRetry
	// ErrAborted is returned by Atomic for a Tx.Abort(nil).
	ErrAborted = core.ErrAborted
)

// Built-in word codecs.
func Uint64Codec() WordCodec[uint64] { return core.Uint64Codec() }

// Int64Codec returns the codec for a single int64.
func Int64Codec() WordCodec[int64] { return core.Int64Codec() }

// BoolCodec returns the codec for a bool.
func BoolCodec() WordCodec[bool] { return core.BoolCodec() }

// AddrCodec returns the codec for a shared-memory address (pointer field).
func AddrCodec() WordCodec[Addr] { return core.AddrCodec() }

// FuncCodec builds a WordCodec from explicit encode/decode functions — for
// fixed-size application structs.
func FuncCodec[T any](words int, enc func(v T, dst []uint64), dec func(src []uint64) T) WordCodec[T] {
	return core.FuncCodec(words, enc, dec)
}

// NewTVar allocates a typed transactional variable behind memory
// controller 0 and raw-writes init.
func NewTVar[T any](sys *System, c WordCodec[T], init T) TVar[T] {
	return core.NewTVar(sys, c, init)
}

// NewTVarAt allocates a TVar behind an explicit memory controller.
func NewTVarAt[T any](sys *System, c WordCodec[T], mc int, init T) TVar[T] {
	return core.NewTVarAt(sys, c, mc, init)
}

// NewTVarNear allocates a TVar behind the memory controller closest to
// core — the §5.2 data-placement hint, expressed in the allocation API.
func NewTVarNear[T any](sys *System, c WordCodec[T], coreID int, init T) TVar[T] {
	return core.NewTVarNear(sys, c, coreID, init)
}

// TVarAt views an existing allocation at base as a TVar.
func TVarAt[T any](sys *System, c WordCodec[T], base Addr) TVar[T] {
	return core.TVarAt(sys, c, base)
}

// NewTArray allocates a typed transactional array behind memory
// controller 0, raw-writing init into every element.
func NewTArray[T any](sys *System, c WordCodec[T], n int, init T) TArray[T] {
	return core.NewTArray(sys, c, n, init)
}

// NewTArrayAt allocates the array behind an explicit memory controller.
func NewTArrayAt[T any](sys *System, c WordCodec[T], n, mc int, init T) TArray[T] {
	return core.NewTArrayAt(sys, c, n, mc, init)
}

// NewTArrayNear allocates the array behind the controller closest to core.
func NewTArrayNear[T any](sys *System, c WordCodec[T], n, coreID int, init T) TArray[T] {
	return core.NewTArrayNear(sys, c, n, coreID, init)
}

// Contention managers (§4).
const (
	NoCM         = cm.NoCM
	BackoffRetry = cm.BackoffRetry
	OffsetGreedy = cm.OffsetGreedy
	Wholly       = cm.Wholly
	FairCM       = cm.FairCM
)

// Placement policies (internal/placement): the paper's static hash
// (default) and hierarchical, locality-aware epoch-based repartitioning.
const (
	PlacementHash = placement.Hash
	PlacementHier = placement.AdaptiveHier
)

// NewSystem builds a simulated TM2C machine from cfg. Zero-valued fields
// take the paper's defaults: the SCC under performance setting 0, all 48
// cores, half of them dedicated DTM service cores, lazy write-lock
// acquisition with batching, and the NoCM policy.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// SCC returns the Intel Single-chip Cloud Computer platform under
// performance setting id (0..4, §5.1). Setting 0 is the paper's default;
// setting 1 is the fast "SCC800" configuration of §7.
func SCC(id int) Platform { return noc.SCC(id) }

// Opteron returns the 48-core AMD Opteron multi-core of §7.
func Opteron() Platform { return noc.Opteron() }

// ParsePolicy parses a contention-manager name
// (none|backoff|offset-greedy|wholly|faircm).
func ParsePolicy(s string) (Policy, error) { return cm.Parse(s) }

// ParsePlacement parses a placement policy name (hash|hier).
func ParsePlacement(s string) (PlacementKind, error) { return placement.Parse(s) }

// ParseBackend parses an execution backend name (sim|live|net).
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// ParseProtocol parses a read-visibility protocol name (visible|tl2; the
// empty string is the visible default).
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// NewRand returns a deterministic random source seeded from seed, suitable
// for building workloads outside the simulated machine.
func NewRand(seed uint64) Rand { return port.NewRand(seed) }

// Policies lists every contention manager in presentation order.
func Policies() []Policy { return append([]Policy(nil), cm.Policies...) }
