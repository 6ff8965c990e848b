package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/trace"
)

// auditLaneEvents is an audited run's ring capacity per lane (a variable so
// that a test can make one wrap). The busiest lane of any audited test run,
// NoCM's in TestAuditPassesOnConflictHeavyRun, emits 2,468 events.
var auditLaneEvents = 1 << 14

// AuditViolation describes a serializability failure found by CheckAudit.
type AuditViolation = check.Violation

// EnableAudit turns on the flight recorder (keeping Config.Trace's Sink),
// sized so that a bounded run's record is whole: it is the record that
// CheckAudit replays. Call before SpawnWorkers. The audit is a sim-backend
// facility: commits replay in their recorded order, which only the
// deterministic kernel's one clock gives. Live and net runs have no such
// order, so EnableAudit panics on them; they are checked with invariants
// (conservation, lock-table emptiness at quiesce).
func (s *System) EnableAudit() {
	if s.cfg.Backend != BackendSim {
		panic(fmt.Sprintf("core: EnableAudit requires the sim backend (%v runs have no global commit order to replay)", s.cfg.Backend))
	}
	if s.spawned {
		panic("core: EnableAudit after SpawnWorkers")
	}
	opts := trace.Options{}
	if s.cfg.Trace != nil {
		opts = *s.cfg.Trace
	}
	opts.ActorEvents = max(opts.ActorEvents, auditLaneEvents)
	s.cfg.Trace = &opts
	s.setupTrace()
	s.audited = true
}

// CheckAudit replays every committed transaction of the run's flight
// record in commit order (check.Replay) and returns nil if the history is
// serializable. initial supplies the pre-run values of audited addresses
// (missing ones are zero, as in mem's fresh space). Under visible reads
// Normal and ReadOnly are strict (their commit instant is the one moment
// every lock is provably held) and the elastic kinds are exempt; under TL2
// every kind's reads are snapshot-validated, so every kind is strict.
func (s *System) CheckAudit(initial map[mem.Addr]uint64) error {
	if !s.audited || s.traceOut == nil {
		return fmt.Errorf("core: audit was not enabled, or the run has not ended")
	}
	locks := s.proto.readsHoldLocks()
	return check.Replay(s.traceOut, initial, func(kind uint64) bool {
		return !locks || TxKind(kind) == Normal || TxKind(kind) == ReadOnly
	})
}

// AuditedCommits reports how many commits the audit's record holds.
func (s *System) AuditedCommits() int {
	if !s.audited || s.traceOut == nil {
		return 0
	}
	return s.traceOut.CountKind(trace.KCommit)
}
