// Package cm implements the distributed contention managers of TM2C (§4).
//
// A contention manager (CM) is invoked by a DTM node when the DS-Lock
// service detects a conflict (RAW, WAW or WAR). Because the system is fully
// distributed, the CM can only use information piggybacked on requests and
// stored in the local lock table — there is no global clock or shared
// counter. Five policies are provided:
//
//   - NoCM: abort and restart the requester (the paper's default baseline).
//   - BackoffRetry: abort the requester, who waits a randomized,
//     exponentially growing delay before retrying. Livelock-prone.
//   - OffsetGreedy: a distributed adaptation of Greedy that estimates
//     transaction start timestamps from piggybacked offsets. Message delay
//     is not accounted for, so different DTM nodes may order two
//     transactions differently (rule (b) of Property 1 can be violated).
//   - Wholly: priority = number of committed transactions; starvation-free.
//   - FairCM: priority = cumulative *effective* transactional time (only
//     the successful attempt of each transaction counts); starvation-free
//     and fair to cores running short transactions.
//
// Priorities are fixed for a transaction's lifespan (rule (a)), totally
// ordered with the core ID as tie-break (rule (b)), and strictly decrease in
// favourability after each commit (rule (c)) — the Property 1 discipline
// that makes Wholly and FairCM starvation-free.
package cm

import (
	"fmt"
	"time"

	"repro/internal/port"
)

// Policy selects a contention-management algorithm.
type Policy uint8

const (
	// NoCM aborts the transaction that detects the conflict.
	NoCM Policy = iota
	// BackoffRetry aborts the requester with randomized exponential backoff.
	BackoffRetry
	// OffsetGreedy prioritizes the transaction with the earliest estimated
	// start time (offset-based timestamps).
	OffsetGreedy
	// Wholly prioritizes the node with the fewest committed transactions.
	Wholly
	// FairCM prioritizes the node with the least cumulative effective
	// transactional time.
	FairCM
)

var policyNames = map[Policy]string{
	NoCM:         "none",
	BackoffRetry: "backoff",
	OffsetGreedy: "offset-greedy",
	Wholly:       "wholly",
	FairCM:       "faircm",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Parse returns the policy named s.
func Parse(s string) (Policy, error) {
	for p, name := range policyNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cm: unknown policy %q (want none|backoff|offset-greedy|wholly|faircm)", s)
}

// Policies lists all policies in presentation order.
var Policies = []Policy{NoCM, BackoffRetry, OffsetGreedy, Wholly, FairCM}

// StarvationFree reports whether the policy guarantees that every
// transaction eventually commits (Properties 2 and 3 of the paper).
func (p Policy) StarvationFree() bool { return p == Wholly || p == FairCM }

// Kind classifies a conflict.
type Kind uint8

const (
	// RAW: the requester wants to read data write-locked by another
	// transaction.
	RAW Kind = iota
	// WAW: the requester wants to write data write-locked by another
	// transaction.
	WAW
	// WAR: the requester wants to write data read-locked by other
	// transactions.
	WAR
)

func (k Kind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAW:
		return "WAW"
	default:
		return "WAR"
	}
}

// Meta is the per-transaction information piggybacked on every DTM request.
// It is everything a CM may consult. The DTM node's lock table keeps Core,
// TxID and Prio per grant; Offset is consumed on arrival by ArrivalPrio,
// which folds it into Prio before the grant is recorded.
type Meta struct {
	Core   int       // requesting application core
	TxID   uint64    // attempt identifier (unique per core)
	Prio   int64     // lifespan priority; lower value = higher priority
	Offset port.Time // OffsetGreedy: elapsed time since lifespan start
}

// ArrivalPrio finalizes a request's priority on the DTM side. OffsetGreedy
// estimates the transaction's start timestamp as arrival time minus the
// piggybacked offset — deliberately ignoring message flight time, exactly as
// the paper's Offset-Greedy does (§4.3), so estimates from different nodes
// may disagree.
func (p Policy) ArrivalPrio(m *Meta, now port.Time) {
	if p == OffsetGreedy {
		m.Prio = int64(now - m.Offset)
	}
}

// Beats reports whether a has strictly higher priority than b under the
// (Prio, Core) lexicographic total order.
func (a Meta) Beats(b Meta) bool {
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Core < b.Core
}

// Decision is a CM verdict.
type Decision uint8

const (
	// AbortRequester: the requesting transaction must abort (the lock
	// holders win).
	AbortRequester Decision = iota
	// AbortEnemies: every conflicting holder must be aborted and the
	// request granted.
	AbortEnemies
)

func (d Decision) String() string {
	if d == AbortEnemies {
		return "abort-enemies"
	}
	return "abort-requester"
}

// Resolve arbitrates a conflict between the requester and the current lock
// holders. For priority-based policies the requester wins only if it beats
// every enemy ("aborts all of them but the highest priority one", §4.1).
func (p Policy) Resolve(req Meta, enemies []Meta, kind Kind) Decision {
	d, _ := p.ResolveWinner(req, enemies, kind)
	return d
}

// ResolveWinner is Resolve that also names the enemy whose priority decided
// the verdict: the index in enemies of the first one the requester does not
// beat, or -1 when no priority decided it (NoCM and BackoffRetry abort the
// requester unconditionally; AbortEnemies has no winning enemy).
func (p Policy) ResolveWinner(req Meta, enemies []Meta, kind Kind) (d Decision, winner int) {
	switch p {
	case NoCM, BackoffRetry:
		return AbortRequester, -1
	default:
		for i, e := range enemies {
			if !req.Beats(e) {
				return AbortRequester, i
			}
		}
		return AbortEnemies, -1
	}
}

// Backoff parameters for BackoffRetry (nominal SCC durations; the runtime
// scales them with the platform's compute scale).
var (
	// BackoffBase is the initial upper bound of the randomized wait.
	BackoffBase = 10 * time.Microsecond
	// BackoffMax caps the exponential growth of the upper bound.
	BackoffMax = 1280 * time.Microsecond
)

// Local is the requester-side CM state of one application core. It
// implements the lifespan bookkeeping behind each policy's priority.
type Local struct {
	Policy Policy
	Core   int

	rng *port.Rand

	commits      uint64    // committed transactions (Wholly priority)
	effTime      port.Time // cumulative effective transactional time (FairCM)
	lifeStart    port.Time // current lifespan start (OffsetGreedy offsets)
	attemptStart port.Time // current attempt start (FairCM effective time)
	attempts     int       // aborts of the current lifespan (backoff growth)
	prio         int64     // priority fixed for the current lifespan
}

// NewLocal returns the CM-local state for core under policy p.
func NewLocal(p Policy, core int, rng *port.Rand) *Local {
	return &Local{Policy: p, Core: core, rng: rng}
}

// StartLifespan begins a new transaction: its priority is computed once and
// stays fixed until commit (Property 1, rule (a)).
func (l *Local) StartLifespan(now port.Time) {
	l.lifeStart = now
	l.attempts = 0
	switch l.Policy {
	case Wholly:
		l.prio = int64(l.commits)
	case FairCM:
		l.prio = int64(l.effTime)
	default:
		l.prio = 0
	}
	l.attemptStart = now
}

// StartAttempt marks the beginning of an attempt (initial or after abort).
func (l *Local) StartAttempt(now port.Time) { l.attemptStart = now }

// RequestMeta builds the metadata to piggyback on a DTM request issued now
// by attempt txID.
func (l *Local) RequestMeta(txID uint64, now port.Time) Meta {
	m := Meta{Core: l.Core, TxID: txID, Prio: l.prio}
	if l.Policy == OffsetGreedy {
		m.Offset = now - l.lifeStart
	}
	return m
}

// OnAbort records an abort and returns how long the core should wait before
// restarting (zero except under BackoffRetry).
func (l *Local) OnAbort() time.Duration {
	l.attempts++
	if l.Policy != BackoffRetry {
		return 0
	}
	bound := BackoffBase << uint(min(l.attempts-1, 30))
	if bound > BackoffMax {
		bound = BackoffMax
	}
	return time.Duration(l.rng.Int63() % int64(bound))
}

// OnCommit finalizes the lifespan: the commit counter and the effective
// transactional time (the successful attempt only, §4.5) both advance, so
// the next lifespan's priority is strictly less favourable (rule (c)).
func (l *Local) OnCommit(now port.Time) {
	l.commits++
	d := now - l.attemptStart
	if d <= 0 {
		d = 1 // guarantee strict monotonicity of effTime
	}
	l.effTime += d
	l.attempts = 0
}

// Commits returns the number of committed transactions.
func (l *Local) Commits() uint64 { return l.commits }

// EffectiveTime returns the cumulative successful-attempt time.
func (l *Local) EffectiveTime() port.Time { return l.effTime }

// Attempts returns the abort count of the current lifespan.
func (l *Local) Attempts() int { return l.attempts }
