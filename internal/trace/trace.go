// Package trace is TM2C-Go's flight recorder: a per-actor ring buffer of
// fixed-size binary event records written allocation-free on the hot path.
//
// Every execution context that does protocol work — an application runtime,
// a DTM service node, the placement directory — owns one Recorder and emits
// events into it as the protocol runs: transaction attempts, reads, lock
// request/grant/NACK pairs, commit phases, aborts with a reason taxonomy,
// wire messages, stripe freezes and handoffs. Events are stamped with the
// owning port's Now(), so simulator traces are deterministic (virtual time,
// bit-identical across runs of one seed) and live-backend traces are
// monotonic wall-clock.
//
// Emitting is a bounded-cost operation by construction: one ring-slot write,
// no allocation, no locking (each Recorder is single-writer, owned by its
// actor's execution context), and a nil *Recorder is a no-op — which is what
// the Config.Trace knob compiles down to when tracing is off. When the ring
// wraps, the oldest events are overwritten (flight-recorder semantics:
// the most recent window survives) and Dropped reports how many were lost.
//
// After a run quiesces, the per-actor rings are merged into a Trace and
// rendered: WriteChrome emits Chrome trace_event JSON (chrome://tracing,
// Perfetto) with one lane per actor, spans for transaction attempts and
// commit phases, and flow arrows for lock request→grant pairs; WriteText
// emits a plain-text timeline for test assertions and terminal reading.
package trace

import (
	"sort"

	"repro/internal/port"
)

// Kind identifies one event record type. The A/B/C payload words are
// interpreted per kind as documented on each constant.
type Kind uint8

const (
	// KAttemptStart opens a transaction attempt span. A = attempt number
	// within the transaction (1 = first).
	KAttemptStart Kind = iota
	// KCommit closes the attempt span with a commit. A = attempts used.
	KCommit
	// KAbort closes the attempt span with an abort. A = Reason,
	// B = conflict kind + 1 (cm.Kind; 0 when the abort carries no kind).
	KAbort
	// KRead records a successful transactional read. A = lock key, C = the
	// Hold the key is held by.
	KRead
	// KDoomedRead records a TL2/elastic read refused by snapshot or window
	// validation, immediately before the attempt aborts. A = lock key.
	KDoomedRead
	// KLockReq records a lock request leaving an application core; the
	// flow start of a request→grant arrow. A = flow ID (see FlowID),
	// B = first lock key of the batch, C = batch size.
	KLockReq
	// KLockGrant records a DTM node granting a lock request; the flow end.
	// A = flow ID, B = batch size.
	KLockGrant
	// KLockNack records a DTM node rejecting a request on a conflict.
	// A = flow ID, B = conflict kind (cm.Kind), C = the attempt the NACK
	// names as its winner (see WinnerWord; 0 = none).
	KLockNack
	// KLockStale records a stale-placement NACK. A = flow ID, B = the
	// directory epoch piggybacked on the NACK, C = owner hint + 1 (0 = no
	// hint).
	KLockStale
	// KRevoke records a DTM node taking an enemy attempt's lock away for a
	// requester: a contention manager remotely aborting the enemy, or the
	// lock of an attempt that had already finished (stale). TxID = the
	// requester's attempt, A = RevokeWord(victim core, requester core,
	// stale), B = victim transaction ID, C = lock key.
	KRevoke
	// KPhaseBegin/KPhaseEnd bracket one commit phase span. A = Phase.
	KPhaseBegin
	KPhaseEnd
	// KClockTick records a TL2 version-clock tick. A = the new version.
	KClockTick
	// KWireSend records one physical wire message leaving an actor.
	// A = destination core, B = modeled bytes.
	KWireSend
	// KFreeze records the placement directory freezing a stripe for
	// migration. A = stripe, B = current owner node, C = target node.
	KFreeze
	// KHandoff records a drained stripe's ownership handoff completing.
	// A = stripe, B = old owner node, C = new owner node.
	KHandoff
)

func (k Kind) String() string {
	switch k {
	case KAttemptStart:
		return "attempt-start"
	case KCommit:
		return "commit"
	case KAbort:
		return "abort"
	case KRead:
		return "read"
	case KDoomedRead:
		return "doomed-read"
	case KLockReq:
		return "lock-req"
	case KLockGrant:
		return "lock-grant"
	case KLockNack:
		return "lock-nack"
	case KLockStale:
		return "lock-stale"
	case KRevoke:
		return "revoke"
	case KPhaseBegin:
		return "phase-begin"
	case KPhaseEnd:
		return "phase-end"
	case KClockTick:
		return "clock-tick"
	case KWireSend:
		return "wire-send"
	case KFreeze:
		return "freeze"
	case KHandoff:
		return "handoff"
	}
	return "unknown"
}

// Phase identifies one commit phase span (KPhaseBegin/KPhaseEnd).
type Phase uint8

const (
	// PhaseScatter is the commit's write-lock scatter burst: building and
	// sending every per-node batch.
	PhaseScatter Phase = iota
	// PhaseGather is the await phase collecting the scatter's responses.
	PhaseGather
	// PhaseRevalidate is the TL2 commit's read-set revalidation.
	PhaseRevalidate
	// PhaseWriteBack is the write-set persist to shared memory.
	PhaseWriteBack
	// PhaseRelease is the fire-and-forget lock-release burst.
	PhaseRelease
)

func (p Phase) String() string {
	switch p {
	case PhaseScatter:
		return "scatter"
	case PhaseGather:
		return "gather"
	case PhaseRevalidate:
		return "revalidate"
	case PhaseWriteBack:
		return "write-back"
	case PhaseRelease:
		return "release"
	}
	return "unknown"
}

// Hold is how a read's key is held (KRead's C word).
type Hold uint8

const (
	// HoldRead: the read's own read lock.
	HoldRead Hold = iota
	// HoldAhead: a read lock a TArray scan's batched request took for an
	// element the scan has not read yet.
	HoldAhead
	// HoldUpdate: the write lock, taken at the read because the
	// transaction's body wrote the key it read at this read-set position in
	// its last two commits.
	HoldUpdate
)

func (h Hold) String() string {
	switch h {
	case HoldRead:
		return "read-lock"
	case HoldAhead:
		return "locked-ahead"
	case HoldUpdate:
		return "write-lock"
	}
	return "unknown"
}

// Reason is the abort taxonomy: why a transaction attempt died. It replaces
// the lossy conflict-kind-only classification (Stats.AbortsByKind, which
// survives as the sub-classification of ReasonConflict) with a complete
// partition of every aborted attempt and withdrawn transaction.
type Reason uint8

const (
	// ReasonConflict: a DTM node rejected a lock request on a RAW/WAW/WAR
	// conflict and the contention manager sided with the enemy.
	ReasonConflict Reason = iota
	// ReasonRevoked: a contention manager remotely aborted this transaction
	// (its status register flipped to aborted, observed at a wrapper check
	// or a commit-time CAS).
	ReasonRevoked
	// ReasonDoomedRead: snapshot or window validation refused a read — a
	// TL2 read of a stripe newer than the snapshot (or mid-write-back), a
	// TL2 commit-time revalidation failure, or an elastic-read window
	// mismatch. The opacity mechanism.
	ReasonDoomedRead
	// ReasonStalePlacement: the attempt exhausted its stale-NACK hop budget
	// chasing migrating stripe ownership.
	ReasonStalePlacement
	// ReasonUser: the application withdrew the transaction (Tx.Abort or a
	// terminal Atomic error) or requested an explicit retry (ErrRetry).
	ReasonUser
	// ReasonTimeout: an awaited lock-response RPC exceeded the net backend's
	// per-RPC deadline (Config.RPCDeadline) — the peer process stalled, died,
	// or the connection broke mid-round-trip. The attempt conservatively
	// releases everything it may hold and goes back around the retry loop,
	// so a timeout is a retried abort, not a withdrawal.
	ReasonTimeout
	// NumReasons sizes per-reason counter arrays (Stats.AbortReasons).
	NumReasons = int(ReasonTimeout) + 1
)

func (r Reason) String() string {
	switch r {
	case ReasonConflict:
		return "conflict"
	case ReasonRevoked:
		return "revoked"
	case ReasonDoomedRead:
		return "doomed-read"
	case ReasonStalePlacement:
		return "stale-placement"
	case ReasonUser:
		return "user"
	case ReasonTimeout:
		return "timeout"
	}
	return "unknown"
}

// Reasons lists every abort reason in presentation order.
func Reasons() []Reason {
	return []Reason{ReasonConflict, ReasonRevoked, ReasonDoomedRead, ReasonStalePlacement, ReasonUser, ReasonTimeout}
}

// FlowID packs a (requester core, correlation ID) pair into the flow
// identifier tying a KLockReq to its KLockGrant/KLockNack/KLockStale:
// correlation IDs are per-core, so the pair is globally unique.
func FlowID(core int, reqID uint64) uint64 {
	return uint64(core)<<40 | reqID
}

// WinnerWord packs a KLockNack's C word, the attempt the NACK names as its
// winner, like FlowID with the core plus one: 0 means none (core < 0).
func WinnerWord(core int, txID uint64) uint64 {
	if core < 0 {
		return 0
	}
	return FlowID(core+1, txID)
}

// WinnerParts unpacks WinnerWord; ok is false when the NACK named none.
func WinnerParts(c uint64) (core int, txID uint64, ok bool) {
	return int(c>>40) - 1, c & (1<<40 - 1), c != 0
}

// RevokeWord packs a KRevoke's A word: the victim's core in the low 32
// bits, the revoking requester's core in the next 31, and whether the victim
// had already finished in the top bit.
func RevokeWord(victim, by int, stale bool) uint64 {
	w := uint64(uint32(victim)) | uint64(uint32(by))<<32
	if stale {
		w |= 1 << 63
	}
	return w
}

// RevokeParts unpacks RevokeWord.
func RevokeParts(a uint64) (victim, by int, stale bool) {
	return int(uint32(a)), int(uint32(a>>32) &^ (1 << 31)), a>>63 == 1
}

// Event is one fixed-size flight-recorder record. At is the owning port's
// Now() at emit time; Actor identifies the lane (see Trace.Labels); the
// payload words A/B/C are interpreted per Kind.
type Event struct {
	At   port.Time
	TxID uint64
	A    uint64
	B    uint64
	C    uint64
	// Actor is the emitting lane: the physical core ID for application
	// runtimes, DTMActorBase+core for DTM nodes, PlacementActor for the
	// placement directory.
	Actor int32
	Kind  Kind
}

// Actor lane encoding. Application runtimes use their physical core ID
// directly; DTM nodes are offset so a multitasked core's two services get
// distinct lanes; the placement directory gets one synthetic lane.
const (
	DTMActorBase   int32 = 1 << 16
	PlacementActor int32 = -1
)

// DefaultActorEvents is the default per-actor ring capacity.
const DefaultActorEvents = 8192

// Options configures the flight recorder (core.Config.Trace). The zero
// value of each field takes the documented default; a nil *Options disables
// tracing entirely.
type Options struct {
	// ActorEvents is the ring capacity per actor, rounded up to a power of
	// two (default DefaultActorEvents). When an actor emits more events
	// than fit, the oldest are overwritten.
	ActorEvents int
	// Sink, when non-nil, receives the assembled Trace right after the
	// run's statistics snapshot. Harnesses that build many systems (e.g.
	// tm2c-bench experiments) use it to collect every run's trace; a nil
	// Sink leaves the trace available through System.Trace only.
	Sink func(*Trace)
}

// Recorder is one actor's event ring. It is single-writer: only the actor's
// own execution context may Emit (the live backend's data-race freedom
// depends on it). A nil Recorder ignores Emit — the trace-off fast path is
// exactly one nil comparison.
type Recorder struct {
	buf   []Event
	mask  uint64
	n     uint64 // total events ever emitted (n - len(buf) were dropped)
	actor int32
}

// NewRecorder returns a recorder for the given actor lane with the given
// ring capacity (rounded up to a power of two; <= 0 takes the default).
func NewRecorder(actor int32, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultActorEvents
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{buf: make([]Event, size), mask: uint64(size - 1), actor: actor}
}

// Emit appends one event to the ring, overwriting the oldest when full.
// It never allocates and never blocks; on a nil receiver it is a no-op.
func (r *Recorder) Emit(at port.Time, k Kind, txID, a, b, c uint64) {
	if r == nil {
		return
	}
	r.buf[r.n&r.mask] = Event{At: at, TxID: txID, A: a, B: b, C: c, Actor: r.actor, Kind: k}
	r.n++
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// appendEvents appends the ring's events in emission order.
func (r *Recorder) appendEvents(dst []Event) []Event {
	if r == nil || r.n == 0 {
		return dst
	}
	if r.n <= uint64(len(r.buf)) {
		return append(dst, r.buf[:r.n]...)
	}
	head := r.n & r.mask
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// Trace is the merged flight record of one run: every actor's surviving
// events in one time-sorted slice, plus the lane labels and drop count.
type Trace struct {
	// Events is sorted by At; ties preserve per-actor emission order and
	// the deterministic actor merge order, so identical sim runs produce
	// identical slices.
	Events []Event
	// Labels names each actor lane ("app3", "dtm8", "placement").
	Labels map[int32]string
	// Dropped is the total number of events lost to ring wrap across all
	// actors.
	Dropped uint64
}

// New returns an empty trace ready for Add.
func New() *Trace {
	return &Trace{Labels: make(map[int32]string)}
}

// Add merges one recorder's events under the given lane label. Call in a
// deterministic actor order, then Finish.
func (t *Trace) Add(r *Recorder, label string) {
	if r == nil {
		return
	}
	t.Labels[r.actor] = label
	t.Events = r.appendEvents(t.Events)
	t.Dropped += r.Dropped()
}

// Finish time-sorts the merged events. Stable, so same-instant events keep
// the deterministic order Add built.
func (t *Trace) Finish() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		return t.Events[i].At < t.Events[j].At
	})
}

// CountKind returns how many events of kind k the trace holds.
func (t *Trace) CountKind(k Kind) int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Kind == k {
			n++
		}
	}
	return n
}
