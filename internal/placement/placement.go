// Package placement implements TM2C-Go's object→DTM-node directory: the
// pluggable subsystem deciding which DTM service node owns the lock for a
// given shared-memory key.
//
// TM2C (§3.2) fixes this mapping to a static multiplicative hash, which
// balances load only under uniform access. This package makes placement a
// first-class subsystem with two strategies, one static and one dynamic:
//
//   - Hash: the paper's static multiplicative hash (the default);
//   - AdaptiveHier: a per-stripe ownership table that tracks access counts
//     per epoch and migrates hot stripes from overloaded to underloaded
//     nodes, with locality-aware thread/data co-mapping — migrations are
//     biased toward a DTM node in the cluster (mesh quadrant / socket) of
//     the stripe's dominant accessor group.
//
// # Stripe universe
//
// The stripe universe is derived from the configured memory size: Regions
// memory-controller regions of RegionWords words each, one stripe per word
// (a lock key is an object's base address). A key outside the configured
// universe panics loudly — the directory never aliases far-apart addresses
// onto the same stripe (the historic wrap-modulo behavior silently merged
// unrelated keys at large universes, coarsening migration in ways that were
// impossible to diagnose).
//
// # Two planes
//
// The paper resolves an address with a pure function no core shares state
// over. The directory keeps that property by splitting its state in two:
//
//   - The ownership plane is one immutable snapshot — the remap epoch, an
//     override for every stripe that is frozen or off its default owner, the
//     per-node frozen lists and freeze generations — behind one atomic
//     pointer. Every ownership read (Owner, Resolve, Epoch, HasPending,
//     PendingFor, ValidFor, ...) loads the pointer and takes no lock under
//     any policy; under Hash the snapshot is never replaced at all. Only
//     InitiateMove and CompleteHandoff change ownership, copy-on-write, at
//     most 2·MaxMoves times per epoch and never per access.
//   - The heat plane — access counts, affinity votes, locality accounting
//     and the epoch evaluation that turns them into migrations — is guarded
//     by the directory mutex, which Record and the two writers take. It has
//     two tiers (below): a coarse one that is always on and a per-stripe one
//     that exists only while a node is hot.
//
// The one memory-ordering rule: a snapshot is fully built before it is
// published and never written afterwards, so a reader sees a freeze or a
// handoff entirely or not at all, and Resolve — owner and epoch from the
// same snapshot — cannot pair an old owner with a new epoch.
//
// # A heat plane that sleeps
//
// A mapping mechanism must cost less than it gains, and on a balanced load
// it can gain nothing. The heat plane therefore has two tiers:
//
//   - The coarse tier is always on: one decayed access counter per DTM node
//     (the load a node carried, by the owner each access resolved to) beside
//     the local/remote locality counters. It is all a dormant Record touches
//     — a mutex and three increments per key.
//   - The stripe tier — per-stripe counts and accessor-affinity votes —
//     exists only while the directory is awake. At each epoch boundary one
//     predicate (Directory.hot) decides whether the next window records per
//     stripe: the hottest node's coarse load must exceed ImbalanceFactor
//     times the mean AND its excess over the mean must exceed noiseK·√mean,
//     what sampling noise alone explains. repartition's loop tests the same
//     predicate on the loads it balances — the per-stripe sums by current
//     owner, which weigh heat that persists across windows over the
//     one-touch tail the coarse tier counts in full — so the gate only
//     stands in front of the policy and does not change what a round moves,
//     unless the imbalance the round sees is within noise. Falling asleep
//     drops every leaf and the recycling pool: a balanced workload holds no
//     per-stripe state at all.
//
// The stripe tier is stored hierarchically, because a universe sized for
// millions of objects makes flat per-stripe arrays an O(universe) cost paid
// on every epoch: the universe is divided into super-stripes of LeafStripes
// leaf stripes, and a super-stripe is materialized into a leaf only when one
// of its stripes is first recorded while awake (a split). Leaves are pure
// heat — ownership lives in the snapshot, where a stripe without an override
// has the interleaved default owner (stripe mod Nodes) — so nothing pins
// one: a leaf whose counts have decayed to zero is merged away and its
// arrays recycled for the next split. At most maxLeaves are materialized at
// once; when the table is full an access to a new super-stripe counts in the
// coarse tier only. A leaf touched once in a window decays to zero at its
// end, so the cold tail turns its slots over every epoch, while a stripe hot
// enough to move is touched again before it can decay and keeps its slot.
// Directory work is O(touched) while awake, O(nodes) per epoch while
// dormant, and steady-state recording allocates nothing in either state.
//
// # Migration protocol
//
// Adaptive migration is a consistency-critical distributed protocol. The
// directory never moves ownership of a stripe while locks on it are live:
//
//  1. A repartition round freezes the chosen stripes (the pending target is
//     recorded and the epoch bumps); the current owner keeps serving
//     releases on a frozen stripe but NACKs new lock requests.
//  2. The owner hands a stripe off only once its lock table holds no live
//     lock on it (re-checked on every release and on every retried
//     request), at which point ownership flips and the epoch bumps again.
//     A drained stripe has no lock state, so nothing is copied.
//  3. Lock requests carry the epoch at which the sender resolved the key;
//     a request arriving at a node that no longer (or not yet) owns the
//     key, or whose stripe is frozen, is NACKed back to the requester for
//     re-resolution.
//
// Ownership is therefore never lost or duplicated: at every epoch each key
// has exactly one owner, and only that owner can grant its locks. On the
// simulation backend the directory is plain bookkeeping driven by the event
// loop, so it stays deterministic like everything else in the system.
package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// Kind selects a placement policy.
type Kind uint8

const (
	// Hash is the paper's static multiplicative hash of the lock key.
	Hash Kind = iota
	// AdaptiveHier starts from an interleaved stripe assignment and migrates
	// hot stripes between nodes at epoch boundaries, toward a DTM node in
	// the cluster of their dominant accessor group when Config.Clusters
	// names one, else toward the globally coolest node.
	AdaptiveHier
)

// Adaptive is AdaptiveHier under the name of the retired flat policy. The
// repo benchmark's micro metrics (bench/micro.go) are its only user.
const Adaptive = AdaptiveHier

func (k Kind) String() string {
	if k == AdaptiveHier {
		return "hier"
	}
	return "hash"
}

// Parse parses a placement policy name (hash | hier).
func Parse(s string) (Kind, error) {
	switch s {
	case "", "hash":
		return Hash, nil
	case "hier", "adaptive-hier":
		return AdaptiveHier, nil
	}
	return Hash, fmt.Errorf("placement: unknown policy %q (want hash | hier)", s)
}

// Kinds lists every policy in presentation order.
func Kinds() []Kind { return []Kind{Hash, AdaptiveHier} }

// Config describes one directory.
type Config struct {
	// Nodes is the number of DTM nodes (required, > 0).
	Nodes int
	// Kind selects the policy (default Hash).
	Kind Kind
	// Regions is the number of memory-controller regions the universe
	// covers (default 1). Region r serves addresses [r<<mem.RegionShift,
	// r<<mem.RegionShift + RegionWords).
	Regions int
	// RegionWords is the per-region word capacity of the stripe universe
	// (required, > 0). Keys outside it panic instead of aliasing.
	RegionWords uint64
	// LeafStripes is the number of leaf stripes per super-stripe (rounded
	// up to a power of two; default 256). Adaptive state materializes in
	// units of this size.
	LeafStripes int
	// Clusters maps each DTM node index to its locality cluster (mesh
	// quadrant or socket; see noc.Platform.ClusterOf). Required for the
	// AdaptiveHier co-mapping bias and for the local/remote access
	// accounting; nil disables both.
	Clusters []int
	// EvalEvery is the adaptive epoch length: the number of recorded lock
	// accesses between repartition evaluations (default 2048).
	EvalEvery int
	// MaxMoves caps the migrations initiated per repartition round
	// (default 4).
	MaxMoves int
	// ImbalanceFactor is the max/mean node-load ratio above which a round
	// migrates stripes (default 1.25).
	ImbalanceFactor float64
}

func (c *Config) normalize() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("placement: need at least one node, got %d", c.Nodes)
	}
	if c.Regions <= 0 {
		c.Regions = 1
	}
	if c.RegionWords == 0 {
		return fmt.Errorf("placement: need a RegionWords universe, got 0")
	}
	if c.RegionWords > 1<<mem.RegionShift {
		return fmt.Errorf("placement: RegionWords %d exceeds the %d-word region capacity", c.RegionWords, uint64(1)<<mem.RegionShift)
	}
	if c.LeafStripes <= 0 {
		c.LeafStripes = 256
	}
	// Round the leaf size up to a power of two so leaf lookup is a shift.
	ls := 1
	for ls < c.LeafStripes {
		ls <<= 1
	}
	c.LeafStripes = ls
	if c.Clusters != nil && len(c.Clusters) != c.Nodes {
		return fmt.Errorf("placement: %d node clusters for %d nodes", len(c.Clusters), c.Nodes)
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 2048
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 4
	}
	if c.ImbalanceFactor <= 1 {
		c.ImbalanceFactor = 1.25
	}
	if total := c.RegionWords * uint64(c.Regions); total > 1<<40 {
		return fmt.Errorf("placement: stripe universe %d exceeds 2^40 stripes", total)
	}
	return nil
}

// Move is one stripe migration proposed by a policy.
type Move struct {
	Stripe, From, To int
}

// TraceOp identifies one observable directory transition for SetTracer.
type TraceOp uint8

const (
	// TraceFreeze: a stripe was frozen for migration; its owner will NACK
	// new lock requests on it until it drains.
	TraceFreeze TraceOp = iota
	// TraceHandoff: a drained stripe's ownership flipped to its target.
	TraceHandoff
)

// leaf is one materialized super-stripe of the heat plane's stripe tier,
// guarded by the directory mutex. It is heat only: ownership is the
// snapshot's, so a leaf can be dropped whenever its heat is gone.
type leaf struct {
	counts []uint32 // stripe -> accesses in the current epoch window (saturating)
	aff    []uint64 // stripe -> packed accessor-affinity vote (co-mapping); nil unclustered
	total  uint64   // sum of counts (the super-stripe heat aggregate)
}

const (
	// noiseK is the wake predicate's noise margin: the hottest node's excess
	// over the mean must exceed noiseK·√mean. A decayed per-node load under
	// uniform access has a standard deviation of about 0.8·√mean, so 4 is a
	// five-sigma gate: with 32 nodes and 1024-access epochs (mean 64, where
	// the bare 1.25 factor is a 2.5-sigma event somewhere every few epochs)
	// it admitted no false wake in 10^4 epochs (k = 3.5: ten). Below a mean
	// of 256 it is stricter than the factor — 1.5x at mean 64 — which a Zipf
	// head, at 2-3x, clears at once and an imbalance sitting at the factor
	// does not (README "Placement" has the table over k and what that gives
	// up).
	noiseK = 4
	// maxLeaves caps the stripe tier (3 KB a clustered leaf: 3 MB).
	maxLeaves = 1024
	// remoteHistLen is how many epoch windows RemoteHistory remembers.
	remoteHistLen = 256
)

// override is a stripe that is frozen, off its default owner, or both.
type override struct {
	stripe  int
	owner   int32
	pending int32 // migration target, -1 when none
}

// ownership is one snapshot of the ownership plane, immutable once
// published: fields read through one loaded pointer are mutually consistent.
type ownership struct {
	epoch     uint64
	over      []override // ascending by stripe
	frozen    [][]int    // node -> frozen stripes it still owns, ascending
	freezeGen []uint64   // node -> freezes ever initiated on its stripes
}

// find returns the index of stripe s's override, or where to insert one.
func (o *ownership) find(s int) (int, bool) {
	return slices.BinarySearchFunc(o.over, s, func(ov override, s int) int { return cmp.Compare(ov.stripe, s) })
}

// next starts the successor snapshot: epoch bumped, per-node tables copied;
// the writer replaces the overrides and the one frozen list it changes.
func (o *ownership) next() *ownership {
	return &ownership{
		epoch:     o.epoch + 1,
		over:      o.over,
		frozen:    slices.Clone(o.frozen),
		freezeGen: slices.Clone(o.freezeGen),
	}
}

// Directory owns the key→node mapping and drives the epoch-numbered remap
// protocol. Methods are safe for concurrent use: ownership reads go through
// the atomically published snapshot and never block; Record and the two
// ownership writers (InitiateMove, CompleteHandoff) serialize on the mutex.
// On the live backend the snapshot is what keeps the ownership invariants
// (one owner per stripe, grants only from the owner) intact under real
// goroutine concurrency without a lock on every lock request.
type Directory struct {
	cfg Config

	stripesPerRegion int // leaf stripes per region
	totalStripes     int // leaf-stripe universe size
	leafShift        uint
	numLeaves        int // super-stripe universe size

	// own is the ownership plane: loaded lock-free by every reader, stored
	// only with mu held and only with a fully built snapshot.
	own atomic.Pointer[ownership]

	// mu guards the heat plane (below) and serializes the ownership writers.
	mu       sync.Mutex
	accesses uint64
	nextEval uint64

	// Coarse tier, always on: the load each node carried, charged to the owner
	// an access resolved to and halved at every epoch boundary. Only the gate
	// reads it; a migrated stripe's past stays with its old owner and decays.
	nodeLoad []uint64

	// Stripe tier, populated only while awake.
	awake     bool
	leaves    map[int]*leaf // super-stripe -> materialized leaf (adaptive only)
	leafOrder []int         // materialized super-stripes, ascending

	// Recycled so steady-state Record and evaluate allocate nothing: merged
	// leaves (never more than the peak materialized at once), epoch scratch.
	freeLeaves []*leaf
	load       []uint64
	moves      []Move

	// Locality accounting (Clusters set): recorded accesses whose owner
	// node shares / does not share the accessor's cluster, cumulative and
	// for the current epoch window.
	localAcc, remoteAcc uint64
	winLocal, winRemote uint64
	remoteHist          []float64 // ring of per-epoch remote-access ratios
	histN               int       // windows ever written to remoteHist

	// Counters, snapshotted into core.Stats after a run.
	Epochs      uint64 // repartition rounds that initiated at least one move
	Migrations  uint64 // stripe migrations initiated
	Handoffs    uint64 // stripe handoffs completed
	Splits      uint64 // super-stripes materialized into leaves
	Merges      uint64 // leaves dematerialized after cooling down
	Evaluated   uint64 // epoch windows closed
	AwakeEpochs uint64 // of those, windows that recorded per stripe

	// tracer, when set, observes every freeze and handoff. Called with mu
	// held (serialized, in transition order); it must not call back into
	// the directory or block.
	tracer func(op TraceOp, stripe, from, to int)
}

// SetTracer installs fn to observe stripe freezes and handoffs. Install
// before the system runs; the callback fires with the directory lock held,
// so it must be fast, non-blocking, and must not re-enter the directory.
func (d *Directory) SetTracer(fn func(op TraceOp, stripe, from, to int)) {
	d.mu.Lock()
	d.tracer = fn
	d.mu.Unlock()
}

// New builds a directory. The zero Kind is the paper's static hash.
func New(cfg Config) (*Directory, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Directory{cfg: cfg, nextEval: uint64(cfg.EvalEvery)}
	d.stripesPerRegion = int(cfg.RegionWords)
	d.totalStripes = d.stripesPerRegion * cfg.Regions
	for 1<<d.leafShift < cfg.LeafStripes {
		d.leafShift++
	}
	d.numLeaves = (d.totalStripes + cfg.LeafStripes - 1) / cfg.LeafStripes
	if cfg.Kind == AdaptiveHier {
		d.leaves = make(map[int]*leaf)
		d.load = make([]uint64, cfg.Nodes)
		d.nodeLoad = make([]uint64, cfg.Nodes)
		d.remoteHist = make([]float64, remoteHistLen)
	}
	// Under Hash this first snapshot — epoch 0, nothing frozen — is the last.
	d.own.Store(&ownership{frozen: make([][]int, cfg.Nodes), freezeGen: make([]uint64, cfg.Nodes)})
	return d, nil
}

// Kind returns the directory's policy kind.
func (d *Directory) Kind() Kind { return d.cfg.Kind }

// PolicyName returns the active policy's name.
func (d *Directory) PolicyName() string { return d.cfg.Kind.String() }

// Nodes returns the number of DTM nodes.
func (d *Directory) Nodes() int { return d.cfg.Nodes }

// NumStripes returns the size of the leaf-stripe universe.
func (d *Directory) NumStripes() int { return d.totalStripes }

// LeafUniverse returns how many super-stripes the universe divides into.
func (d *Directory) LeafUniverse() int { return d.numLeaves }

// LeafSpan returns the number of leaf stripes per super-stripe.
func (d *Directory) LeafSpan() int { return d.cfg.LeafStripes }

// MaterializedLeaves returns how many super-stripes currently hold
// materialized adaptive state: zero while the heat plane is dormant, and
// while awake proportional to the touched working set (at most maxLeaves),
// never to the universe.
func (d *Directory) MaterializedLeaves() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.leaves)
}

// AccessLocality returns the cumulative recorded accesses whose owning DTM
// node did / did not share the accessor's cluster. Zero unless the
// directory is adaptive and Config.Clusters is set.
func (d *Directory) AccessLocality() (local, remote uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.localAcc, d.remoteAcc
}

// RemoteHistory returns the per-epoch-window remote-access ratios, oldest
// first — the convergence witness of the co-mapping tests. The directory
// remembers the most recent remoteHistLen windows: on a longer run the
// first element is no longer the run's first window.
func (d *Directory) RemoteHistory() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.histN <= remoteHistLen {
		return slices.Clone(d.remoteHist[:d.histN])
	}
	at := d.histN % remoteHistLen
	return slices.Concat(d.remoteHist[at:], d.remoteHist[:at])
}

func (d *Directory) adaptive() bool { return d.leaves != nil }

func (d *Directory) clustered() bool { return d.cfg.Clusters != nil }

// StripeOf maps a lock key to its stripe: region-major, one word per
// stripe. It panics on a key outside the configured universe — the
// directory derives its universe from the memory size precisely so that
// far-apart keys can never silently alias.
func (d *Directory) StripeOf(key mem.Addr) int {
	r := uint64(key) >> mem.RegionShift
	off := uint64(key) & (1<<mem.RegionShift - 1)
	if int(r) >= d.cfg.Regions || off >= uint64(d.stripesPerRegion) {
		panic(fmt.Sprintf(
			"placement: address %#x outside the configured stripe universe (%d regions x %d words); raise the region size (core's memWords) instead of relying on aliasing",
			uint64(key), d.cfg.Regions, d.cfg.RegionWords))
	}
	return int(r)*d.stripesPerRegion + int(off)
}

// defaultOwner is the implicit owner of a stripe without an override: the
// interleaved start assignment (consecutive stripes round-robin across the
// nodes, balanced under uniform access; migration refines it).
func (d *Directory) defaultOwner(s int) int32 { return int32(s % d.cfg.Nodes) }

// Snapshot is one consistent view of the ownership plane: every answer comes
// from the same published state, however many handoffs complete meanwhile.
type Snapshot struct {
	d *Directory
	o *ownership
}

// Snapshot returns the current ownership snapshot. It takes no lock.
func (d *Directory) Snapshot() Snapshot { return Snapshot{d, d.own.Load()} }

// stripe returns stripe s's owner and migration target (-1 when none).
func (v Snapshot) stripe(s int) (owner, pending int32) {
	if i, ok := v.o.find(s); ok {
		return v.o.over[i].owner, v.o.over[i].pending
	}
	return v.d.defaultOwner(s), -1
}

// Epoch returns the snapshot's remap epoch. Static policies stay at 0.
func (v Snapshot) Epoch() uint64 { return v.o.epoch }

// Owner resolves a lock key to its owning DTM node: the paper's static
// multiplicative hash under Hash, the stripe-ownership table otherwise.
func (v Snapshot) Owner(key mem.Addr) int {
	if !v.d.adaptive() {
		return hashOwner(key, v.d.cfg.Nodes)
	}
	owner, _ := v.stripe(v.d.StripeOf(key))
	return int(owner)
}

// HasPending reports whether node still has frozen stripes to hand off.
func (v Snapshot) HasPending(node int) bool { return len(v.o.frozen[node]) > 0 }

// FreezeGen returns how many freezes have ever been initiated on stripes
// node owned — a monotonic cursor DTM nodes use to gate their drained-stripe
// scans: a frozen stripe can only become drainable when the owner's lock
// table shrinks or a new freeze appears, so an unchanged generation plus an
// unchanged table means the scan can be skipped (see core's dtmNode).
func (v Snapshot) FreezeGen(node int) uint64 { return v.o.freezeGen[node] }

// PendingFor returns the frozen stripes node still owns, in ascending
// stripe order (deterministic handoff order). The slice belongs to the
// immutable snapshot: completing handoffs while iterating it is safe, and
// the caller must not modify it.
func (v Snapshot) PendingFor(node int) []int { return v.o.frozen[node] }

// ValidFor reports whether a lock request for keys sent to node is
// serviceable by that node: every key must currently map to node and none
// of their stripes may be frozen for migration. The check is authoritative
// per key — a request whose resolution happens to still be correct is
// accepted even if it was resolved epochs ago, and a mis-addressed request
// is rejected regardless of its stamp. (The wire epoch's job is the
// receiver's fast path: a current-epoch request from a protocol-obeying
// sender needs no per-key scan; see dtmNode.placeOK.) Static policies
// never invalidate a resolution.
func (v Snapshot) ValidFor(node int, keys ...mem.Addr) bool {
	if !v.d.adaptive() {
		return true
	}
	for _, k := range keys {
		if owner, pending := v.stripe(v.d.StripeOf(k)); int(owner) != node || pending >= 0 {
			return false
		}
	}
	return true
}

// Owner resolves a lock key to its owning DTM node under the current
// assignment. Resolution is pure lookup; use Record to account accesses.
func (d *Directory) Owner(key mem.Addr) int { return d.Snapshot().Owner(key) }

// Resolve is Owner plus the remap epoch that resolution was made at, both
// read from one snapshot. A lock request carries the pair: the epoch vouches
// that the owner was current, which is what lets the receiving node skip its
// per-key ownership scan (core's placeOK). Reading the two from different
// snapshots — owner first, epoch second — lets a handoff complete in between
// and produces (old owner, new epoch): a stale resolution the fast path
// would wave through at a node that no longer owns the key.
func (d *Directory) Resolve(key mem.Addr) (owner int, epoch uint64) {
	v := d.Snapshot()
	return v.Owner(key), v.Epoch()
}

// Epoch returns the current remap epoch. Static policies stay at 0.
func (d *Directory) Epoch() uint64 { return d.Snapshot().Epoch() }

// HasPending, PendingFor and ValidFor are the Snapshot methods of the same
// name on the current snapshot.
func (d *Directory) HasPending(node int) bool  { return d.Snapshot().HasPending(node) }
func (d *Directory) PendingFor(node int) []int { return d.Snapshot().PendingFor(node) }
func (d *Directory) ValidFor(node int, keys ...mem.Addr) bool {
	return d.Snapshot().ValidFor(node, keys...)
}

// StripeOwner returns the current owner of stripe s (adaptive directories;
// static policies resolve per key, not per stripe).
func (d *Directory) StripeOwner(s int) int {
	if !d.adaptive() {
		return -1
	}
	owner, _ := d.Snapshot().stripe(s)
	return int(owner)
}

// PendingTarget returns the migration target of stripe s, if it is frozen.
func (d *Directory) PendingTarget(s int) (int, bool) {
	if _, t := d.Snapshot().stripe(s); t >= 0 {
		return int(t), true
	}
	return 0, false
}

// materialize splits the super-stripe covering s into a leaf (no-op when
// already materialized), recycling a merged leaf if one is free. It returns
// nil when the table is full: the access stays in the coarse tier. mu held.
func (d *Directory) materialize(s int) *leaf {
	id := s >> d.leafShift
	lf := d.leaves[id]
	if lf != nil || len(d.leaves) >= maxLeaves {
		return lf
	}
	size := min(d.cfg.LeafStripes, d.totalStripes-id<<d.leafShift)
	if n := len(d.freeLeaves); n > 0 {
		lf, d.freeLeaves = d.freeLeaves[n-1], d.freeLeaves[:n-1]
	} else {
		// Full capacity even for the short last leaf: recycled leaves fit anywhere.
		lf = &leaf{counts: make([]uint32, d.cfg.LeafStripes)}
		if d.clustered() {
			lf.aff = make([]uint64, d.cfg.LeafStripes)
		}
	}
	lf.counts = lf.counts[:size]
	if lf.aff != nil {
		lf.aff = lf.aff[:size]
	}
	d.leaves[id] = lf
	d.leafOrder = slices.Insert(d.leafOrder, sort.SearchInts(d.leafOrder, id), id)
	d.Splits++
	return lf
}

// Record accounts intended lock acquisitions on each key by an accessor in
// cluster src (see noc.Platform.ClusterOf; pass -1 when unknown) and, at
// epoch boundaries, lets the policy initiate a repartition round. Static
// policies ignore it. Every access counts in the coarse tier; only while the
// directory is awake does it also materialize the touched super-stripe and
// count per stripe, so everything downstream — epoch decay, repartition
// scans — costs O(touched) while awake and O(nodes) while dormant, never
// O(universe).
func (d *Directory) Record(src int, keys ...mem.Addr) {
	if !d.adaptive() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.Snapshot()
	mask := d.cfg.LeafStripes - 1
	for _, k := range keys {
		s := d.StripeOf(k)
		owner, _ := v.stripe(s)
		d.nodeLoad[owner]++
		if d.clustered() && src >= 0 {
			if d.cfg.Clusters[owner] == src {
				d.localAcc++
				d.winLocal++
			} else {
				d.remoteAcc++
				d.winRemote++
			}
		}
		if !d.awake {
			continue
		}
		lf, i := d.materialize(s), s&mask
		if lf == nil {
			continue
		}
		if lf.counts[i] != math.MaxUint32 {
			lf.counts[i]++
			lf.total++
		}
		if lf.aff != nil && src >= 0 {
			lf.aff[i] = affVote(lf.aff[i], src)
		}
	}
	d.accesses += uint64(len(keys))
	if d.accesses >= d.nextEval {
		d.nextEval = d.accesses + uint64(d.cfg.EvalEvery)
		d.evaluate()
	}
}

// hot is the one imbalance predicate, shared by the gate (evaluate) and the
// policy (repartition): a node carrying peak against a per-node mean is hot
// when it exceeds the configured factor and the excess is more than sampling
// noise explains.
func (d *Directory) hot(peak uint64, mean float64) bool {
	p := float64(peak)
	return p > d.cfg.ImbalanceFactor*mean && p-mean > noiseK*math.Sqrt(mean)
}

// evaluate closes an epoch window. Awake, the policy proposes migrations,
// the directory freezes the chosen stripes, and the per-stripe counts decay
// so old heat fades across windows; the decay walks materialized leaves only
// and a leaf that has fully cooled merges away. Then the coarse tier decides
// the next window's state — awake while some node is hot, and on falling
// asleep the whole stripe tier is dropped — and decays too. mu held.
func (d *Directory) evaluate() {
	d.Evaluated++
	if d.awake {
		d.AwakeEpochs++
		moved := false
		for _, m := range repartition(d) {
			if d.initiateMove(m.Stripe, m.To) {
				moved = true
			}
		}
		if moved {
			d.Epochs++
		}
		kept := d.leafOrder[:0]
		for _, id := range d.leafOrder {
			lf := d.leaves[id]
			var tot uint64
			for i := range lf.counts {
				lf.counts[i] >>= 1
				tot += uint64(lf.counts[i])
			}
			lf.total = tot
			for i, a := range lf.aff {
				if a != 0 {
					lf.aff[i] = affDecay(a)
				}
			}
			if tot != 0 {
				kept = append(kept, id)
				continue
			}
			// Cold. Counts are all zero; a vote may still name a leadless candidate.
			clear(lf.aff)
			d.freeLeaves = append(d.freeLeaves, lf)
			delete(d.leaves, id)
			d.Merges++
		}
		d.leafOrder = kept
	}
	var total, peak uint64
	for i, l := range d.nodeLoad {
		total += l
		peak = max(peak, l)
		d.nodeLoad[i] = l >> 1
	}
	hot := d.hot(peak, float64(total)/float64(d.cfg.Nodes))
	if d.awake && !hot {
		d.Merges += uint64(len(d.leaves))
		clear(d.leaves)
		d.leafOrder, d.freeLeaves = nil, nil
	}
	d.awake = hot
	if w := d.winLocal + d.winRemote; w > 0 {
		d.remoteHist[d.histN%remoteHistLen] = float64(d.winRemote) / float64(w)
		d.histN++
		d.winLocal, d.winRemote = 0, 0
	}
}

// InitiateMove freezes stripe s for migration to node to: the current owner
// keeps serving releases on s but NACKs new lock requests until the stripe
// drains and the handoff completes. It reports whether the move was
// initiated (false when s is already frozen, already owned by to, the
// directory is not adaptive, or an argument is out of range).
func (d *Directory) InitiateMove(s, to int) bool {
	if !d.adaptive() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.initiateMove(s, to)
}

// initiateMove is InitiateMove with mu held.
func (d *Directory) initiateMove(s, to int) bool {
	if s < 0 || s >= d.totalStripes || to < 0 || to >= d.cfg.Nodes {
		return false
	}
	cur := d.own.Load()
	at, overridden := cur.find(s)
	owner := d.defaultOwner(s)
	if overridden {
		if cur.over[at].pending >= 0 {
			return false
		}
		owner = cur.over[at].owner
	}
	if int(owner) == to {
		return false
	}
	next := cur.next()
	if overridden {
		next.over = slices.Clone(cur.over)
		next.over[at].pending = int32(to)
	} else {
		next.over = slices.Concat(cur.over[:at], []override{{stripe: s, owner: owner, pending: int32(to)}}, cur.over[at:])
	}
	list := cur.frozen[owner]
	fi := sort.SearchInts(list, s)
	next.frozen[owner] = slices.Concat(list[:fi], []int{s}, list[fi:])
	next.freezeGen[owner]++
	d.own.Store(next)
	d.Migrations++
	if d.tracer != nil {
		d.tracer(TraceFreeze, s, int(owner), to)
	}
	return true
}

// CompleteHandoff transfers frozen stripe s to its pending target and bumps
// the epoch. The caller — the owning DTM node — must have verified that its
// lock table holds no live lock on the stripe.
func (d *Directory) CompleteHandoff(s int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.own.Load()
	at, overridden := cur.find(s)
	if !overridden || cur.over[at].pending < 0 {
		panic(fmt.Sprintf("placement: CompleteHandoff(%d) without a pending migration", s))
	}
	from, to := cur.over[at].owner, cur.over[at].pending
	def := d.defaultOwner(s)
	next := cur.next()
	if to == def {
		next.over = slices.Concat(cur.over[:at], cur.over[at+1:]) // back home: the default says it all
	} else {
		next.over = slices.Clone(cur.over)
		next.over[at] = override{stripe: s, owner: to, pending: -1}
	}
	list := cur.frozen[from]
	fi := sort.SearchInts(list, s)
	next.frozen[from] = slices.Concat(list[:fi], list[fi+1:])
	d.own.Store(next)
	d.Handoffs++
	if d.tracer != nil {
		d.tracer(TraceHandoff, s, int(from), int(to))
	}
}

// CheckInvariants validates the directory's structural invariants; tests
// call it after random migration schedules. The invariants are: the
// overrides are ascending, in range, and each is frozen or off its default
// owner (so every stripe has exactly one owner); a pending target never
// equals the current owner; the per-node frozen lists are exactly the
// overrides with a pending target; every leaf's total agrees with its
// counts, no leaf is empty, and there are none at all while dormant nor more
// than maxLeaves ever.
func (d *Directory) CheckInvariants() error {
	if !d.adaptive() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.leafOrder) != len(d.leaves) || len(d.leaves) > maxLeaves || (!d.awake && len(d.leaves)+len(d.freeLeaves) != 0) {
		return fmt.Errorf("%d leaves ordered, %d materialized, %d free (cap %d, awake %v)",
			len(d.leafOrder), len(d.leaves), len(d.freeLeaves), maxLeaves, d.awake)
	}
	o := d.own.Load()
	wantFrozen := make([][]int, d.cfg.Nodes)
	for j, ov := range o.over {
		s := ov.stripe
		if s < 0 || s >= d.totalStripes || (j > 0 && o.over[j-1].stripe >= s) {
			return fmt.Errorf("override %d on stripe %d out of range or out of order", j, s)
		}
		if ov.owner < 0 || int(ov.owner) >= d.cfg.Nodes || int(ov.pending) >= d.cfg.Nodes || ov.pending == ov.owner {
			return fmt.Errorf("stripe %d: owner %d, pending %d out of range or equal", s, ov.owner, ov.pending)
		}
		if ov.pending < 0 && ov.owner == d.defaultOwner(s) {
			return fmt.Errorf("stripe %d has an override but is neither frozen nor off its default owner", s)
		}
		if ov.pending >= 0 {
			wantFrozen[ov.owner] = append(wantFrozen[ov.owner], s)
		}
	}
	for oi, id := range d.leafOrder {
		if oi > 0 && d.leafOrder[oi-1] >= id {
			return fmt.Errorf("leaf order not ascending at %d", oi)
		}
		lf := d.leaves[id]
		if lf == nil {
			return fmt.Errorf("ordered leaf %d not materialized", id)
		}
		var tot uint64
		for _, c := range lf.counts {
			tot += uint64(c)
		}
		if tot != lf.total || tot == 0 {
			return fmt.Errorf("leaf %d total %d, its counts sum to %d (an empty leaf should have merged)", id, lf.total, tot)
		}
	}
	for n, want := range wantFrozen {
		if !slices.Equal(o.frozen[n], want) { // both ascending
			return fmt.Errorf("node %d frozen list %v, overrides say %v", n, o.frozen[n], want)
		}
	}
	return nil
}

// affVote folds one accessor-cluster observation into a packed
// Boyer-Moore-style majority vote: the candidate cluster (plus one, so 0
// means empty) in the high 32 bits, its lead count in the low 32. Matching
// observations strengthen the candidate, conflicting ones weaken it until a
// new candidate takes over — O(1) space per stripe regardless of how many
// clusters exist, and exact whenever one cluster truly dominates the epoch
// window.
func affVote(a uint64, src int) uint64 {
	cand, cnt := uint32(a>>32), uint32(a)
	switch {
	case cnt == 0:
		return uint64(src+1)<<32 | 1
	case cand == uint32(src+1):
		if cnt < 1<<32-1 {
			cnt++
		}
		return uint64(cand)<<32 | uint64(cnt)
	default:
		return uint64(cand)<<32 | uint64(cnt-1)
	}
}

// affDecay halves a vote's lead at an epoch boundary, mirroring the count
// decay: stale affinity fades at the same rate as stale heat.
func affDecay(a uint64) uint64 {
	cnt := uint32(a) >> 1
	if cnt == 0 {
		return 0
	}
	return a&0xffffffff00000000 | uint64(cnt)
}

// affCluster unpacks a vote's dominant cluster, -1 when none.
func affCluster(a uint64) int {
	if uint32(a) == 0 {
		return -1
	}
	return int(uint32(a>>32)) - 1
}
