package core

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/port"
)

// The audit subsystem is an executable check of the correctness claim of
// §2: TM2C ensures atomic consistency (opacity) of transactions. With
// visible reads and two-phase locking, every committed Normal transaction
// holds all its read and write locks at the instant it persists, so the
// whole transaction is atomic at its commit point. The auditor records
// every committed transaction's first-read values and written values, then
// replays the commits in commit order against a model memory: every
// recorded read must equal the model state at that point.
//
// Elastic transactions are exempt from read checking (their reads are
// deliberately not serialized at the commit point — that is the model's
// relaxation); their writes still participate in the replay.
//
// Auditing is a test/diagnostic facility: it allocates per-commit records,
// so enable it only on bounded runs.

// auditRecord is one committed transaction.
type auditRecord struct {
	core   int
	txID   uint64
	kind   TxKind
	strict bool // reads must match the serial state at the commit instant
	commit port.Time
	seq    uint64 // tie-break for equal commit instants
	reads  []auditAccess
	writes []auditAccess
}

// auditAccess is one object access.
type auditAccess struct {
	base mem.Addr
	vals []uint64
}

// auditor collects commit records.
type auditor struct {
	records []auditRecord
	seq     uint64
}

// EnableAudit switches on commit recording. Call before SpawnWorkers. The
// audit is a sim-backend facility: it replays commits in their exact
// recorded order, which only exists under the deterministic kernel's one
// clock. Live and net runs have no such order — every net rank would replay
// its own clock — so EnableAudit panics on them; they are checked with
// invariants instead (conservation, lock-table emptiness at quiesce; see
// internal/live's and internal/net's tests).
func (s *System) EnableAudit() {
	if s.cfg.Backend != BackendSim {
		panic(fmt.Sprintf("core: EnableAudit requires the sim backend (%v runs have no global commit order to replay)", s.cfg.Backend))
	}
	if s.audit == nil {
		s.audit = &auditor{}
	}
}

// recordCommit captures a committed transaction. Called at the commit
// instant (after persist), while the kernel guarantees mutual exclusion.
func (s *System) recordCommit(tx *Tx, commit port.Time) {
	a := s.audit
	if a == nil {
		return
	}
	a.seq++
	rec := auditRecord{
		core: tx.rt.core,
		txID: tx.id,
		kind: tx.kind,
		// Visible protocol: Normal and ReadOnly hold read locks at their
		// commit instant, so their reads are checked strictly; the elastic
		// kinds deliberately relax read atomicity and are exempt. TL2:
		// every kind's reads are snapshot-validated (elastic relaxations
		// degenerate to plain TL2), so ALL kinds are checked strictly —
		// updates at their clock tick, pure readers at their snapshot.
		strict: !s.proto.readsHoldLocks() || tx.kind == Normal || tx.kind == ReadOnly,
		commit: commit,
		seq:    a.seq,
	}
	words := tx.rt.words
	for _, e := range tx.reads.entries {
		if e.released() {
			continue // early-released; not part of the atomic snapshot
		}
		// For an object also written, the read set still holds the
		// first-read (pre-write) value: Write buffers into the write set.
		rec.reads = append(rec.reads, auditAccess{e.base, cloneWords(e.vals(words))})
	}
	for _, e := range tx.writes.entries {
		rec.writes = append(rec.writes, auditAccess{e.base, cloneWords(e.vals(words))})
	}
	a.records = append(a.records, rec)
}

// AuditViolation describes a serializability failure found by CheckAudit.
type AuditViolation struct {
	Core   int
	TxID   uint64
	Commit port.Time
	Addr   mem.Addr
	Got    uint64 // value the transaction read
	Want   uint64 // value the serial replay holds at its commit point
}

func (v *AuditViolation) Error() string {
	return fmt.Sprintf("core: audit: tx (core %d, id %d) committed at %v read %#x=%d but the serial order holds %d",
		v.Core, v.TxID, v.Commit, uint64(v.Addr), v.Got, v.Want)
}

// CheckAudit replays every committed transaction in commit order and
// verifies that each Normal transaction's reads match the serial state —
// i.e. that the concurrent execution is equivalent to the serial execution
// in commit order (view serializability at commit points, the heart of
// opacity for committed transactions). It returns nil if the history is
// serializable. initial supplies the pre-run values of audited addresses
// (missing addresses default to zero), matching mem's zero-initialized
// space.
func (s *System) CheckAudit(initial map[mem.Addr]uint64) error {
	a := s.audit
	if a == nil {
		return fmt.Errorf("core: audit was not enabled")
	}
	recs := make([]auditRecord, len(a.records))
	copy(recs, a.records)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].commit != recs[j].commit {
			return recs[i].commit < recs[j].commit
		}
		return recs[i].seq < recs[j].seq
	})
	model := make(map[mem.Addr]uint64, len(initial))
	for k, v := range initial {
		model[k] = v
	}
	for _, rec := range recs {
		// Strictness is decided at record time (recordCommit): under the
		// visible protocol Normal and ReadOnly are strict (their recorded
		// instant is the one moment every lock is provably held) and the
		// elastic kinds are exempt; under TL2 every kind is strict.
		if rec.strict {
			for _, rd := range rec.reads {
				for i, got := range rd.vals {
					addr := rd.base + mem.Addr(i)
					if want := model[addr]; want != got {
						return &AuditViolation{
							Core: rec.core, TxID: rec.txID, Commit: rec.commit,
							Addr: addr, Got: got, Want: want,
						}
					}
				}
			}
		}
		for _, wr := range rec.writes {
			for i, v := range wr.vals {
				model[wr.base+mem.Addr(i)] = v
			}
		}
	}
	return nil
}

// AuditedCommits reports how many commits were recorded.
func (s *System) AuditedCommits() int {
	if s.audit == nil {
		return 0
	}
	return len(s.audit.records)
}
