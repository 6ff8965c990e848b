package core

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// The invisible-read protocol mode (Config.Protocol == ProtocolTL2), in the
// style of TL2: transactions read shared memory directly and validate
// against a snapshot of the global version clock instead of acquiring read
// locks, so a read costs zero wire messages. The network is consulted only
// at an update commit, which reuses the visible protocol's entire
// machinery: the per-node write-lock batches, the scatter-gather RPC layer,
// placement NACK chasing, contention management, and the release burst.
//
// Opacity argument. Every transaction snapshots the sharded clock at
// attempt start (tx.rv, one counter per shard). A committer, once its write
// locks are granted and it has become non-abortable, sets a write-back
// marker on every write stripe, ticks its clock shard to obtain the new
// version wv, revalidates its read set, persists, then publishes wv and
// clears the markers. A reader accepts a stripe only if it is unmarked and
// its version is covered by rv (mem.VersionLEQ): rv covering a version
// means the snapshot loaded that shard AFTER the tick that produced it,
// which happened AFTER the markers went up — so an uncovered-or-marked
// stripe can be mid-write-back and is refused (a doomed read aborts rather
// than return a possibly torn value). Hence all accepted reads reflect
// fully published commits no newer than the snapshot: every read-only
// prefix of a transaction is a consistent view as of its snapshot instant,
// even for attempts that later abort — which is opacity.
//
// Serialization instants (what the sim audit replays): an update commit
// serializes at its clock tick — revalidation proves the read set unchanged
// from first read through a point after the tick, and the write locks +
// markers keep the write set exclusive from before the tick through
// publication. A transaction that wrote nothing serializes at its snapshot
// instant: its reads were each validated against that same snapshot, so no
// commit-time work (and no message) is needed at all.
//
// Under this mode every TxKind degenerates to the same invisible-read
// semantics: elastic windows and early release exist to relax visible read
// locking, which TL2 does not perform (EarlyRelease becomes a no-op), and
// the audit checks ALL kinds strictly. Irrevocable transactions are
// unsupported — their exclusivity tokens block lock requesters, but an
// invisible reader never sends one (RunIrrevocable panics).

// tl2ClockShards is the version-clock shard count: enough to keep live
// committers from serializing on one cache line, small enough that the
// begin-time snapshot stays a register-plane operation.
const tl2ClockShards = 8

// tl2 reports whether the system runs the invisible-read protocol.
func (s *System) tl2() bool { return s.cfg.Protocol == ProtocolTL2 }

// snapshotTL2 loads the version clock into the attempt's read snapshot.
// Called once per attempt, after the begin cost; the per-runtime buffer is
// reused across attempts (only one attempt is ever live per runtime).
func (rt *Runtime) snapshotTL2(tx *Tx) {
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.ClockSnap))
	rt.rvBuf = rt.s.clock.Snapshot(rt.rvBuf[:0])
	tx.rv = rt.rvBuf
	tx.snapAt = rt.proc.Now()
}

// readTL2 is the invisible read: fetch the object and its stripe's version
// metadata in one atomic memory visit, refuse anything the snapshot does
// not cover. No message leaves the core.
func (tx *Tx) readTL2(base mem.Addr, n int) []uint64 {
	rt := tx.rt
	tx.checkAborted() // eager-mode enemies can still remote-abort us
	key := rt.s.lockKey(base)
	vals, ver, locked := rt.s.Mem.ReadVersionedTo(rt.proc, rt.core, base, key, rt.wordBuf(n))
	if locked || !mem.VersionLEQ(ver, tx.rv) {
		// Doomed: the stripe is newer than our snapshot, or a committer's
		// write-back is in flight. Returning the value could tear the
		// snapshot, so the attempt dies here.
		rt.shard.DoomedReads++
		rt.emit(trace.KDoomedRead, tx.id, uint64(key), 0, 0)
		panic(tx.rt.signal(abortSignal{reason: trace.ReasonDoomedRead}))
	}
	if prev, seen := tx.readVers[key]; seen {
		if prev != ver {
			// A second object on the same stripe observed a different
			// version: the stripe changed between our reads.
			rt.shard.DoomedReads++
			rt.emit(trace.KDoomedRead, tx.id, uint64(key), 0, 0)
			panic(tx.rt.signal(abortSignal{reason: trace.ReasonDoomedRead}))
		}
	} else {
		tx.readVers[key] = ver
	}
	tx.reads[base] = vals
	tx.readOrder = append(tx.readOrder, base)
	rt.shard.LocalReads++
	return vals
}

// commitTL2 is the TL2 commit. A transaction with an empty write buffer
// serializes at its snapshot instant and completes without a single
// message; an update commit acquires its write locks through the shared
// scatter machinery, marks the write stripes, ticks the clock, revalidates
// the read set, persists, publishes, and releases.
func (tx *Tx) commitTL2() {
	rt := tx.rt
	tx.checkAborted()
	start := rt.proc.Now()

	if len(tx.writeOrd) == 0 {
		// Pure reader (including the declared ReadOnly kind): every read was
		// validated against rv when it happened, so the whole transaction is
		// a consistent view as of the snapshot. Nothing is locked, nothing
		// to release — zero commit-time network work.
		rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxCommitted)
		if rt.s.audit != nil {
			rt.s.recordCommit(tx, tx.snapAt)
		}
		rt.commitLat.Observe(rt.proc.Now() - start)
		return
	}

	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.Commit))
	if rt.s.cfg.Acquire == Lazy {
		tx.acquireCommitLocks() // records grant-time versions (tx.grantVers)
	}
	// Become non-abortable. If the CAS fails, a CM got to us first.
	if !rt.s.Regs.CASStatusLocal(rt.core, tx.id, mem.TxPending, mem.TxCommitting) {
		panic(tx.rt.signal(abortSignal{reason: trace.ReasonRevoked}))
	}
	// Mark the write stripes. Safe: we hold their DTM write locks and are
	// already Committing, so no CM can revoke them (abortEnemies refuses),
	// and a marker therefore always belongs to a lock holder — two markers
	// on one stripe would need two holders of the same write lock.
	keys := tx.writeKeys()
	rt.s.Mem.LockVersions(rt.proc, rt.core, keys)
	rt.proc.Advance(rt.s.compute(rt.s.cfg.Costs.ClockTick))
	wv := rt.s.clock.Tick(rt.core)
	rt.shard.ClockAdvances++
	rt.emit(trace.KClockTick, tx.id, wv, 0, 0)
	tickAt := rt.proc.Now()
	rvStart := rt.proc.Now()
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseRevalidate), 0, 0)
	tx.revalidateTL2(keys)
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseRevalidate), 0, 0)
	rt.revalLat.Observe(rt.proc.Now() - rvStart)
	// Persist the write set, then publish the new version: readers see the
	// marker until the very instant the new data is fully in place.
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
	addrs, vals := tx.writeBackLists()
	rt.s.Mem.WriteBatch(rt.proc, rt.core, addrs, vals)
	rt.s.Mem.PublishVersions(rt.proc, rt.core, keys, wv)
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseWriteBack), 0, 0)
	rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxCommitted)
	if rt.s.audit != nil {
		rt.s.recordCommit(tx, tickAt) // serializes at the clock tick
	}
	rt.releaseAll(tx)
	rt.commitLat.Observe(rt.proc.Now() - start)
}

// revalidateTL2 re-checks every stripe of the read set after the clock
// tick. Stripes we also write are checked against the version the DTM node
// piggybacked on the grant (no memory traffic); pure-read stripes pay one
// charged version load each. Any change — or a foreign write-back marker —
// since the first read aborts the commit, which must first clear its own
// markers and roll the status back to abortable before unwinding.
func (tx *Tx) revalidateTL2(writeKeys []mem.Addr) {
	rt := tx.rt
	if rt.rvInWrite == nil {
		rt.rvInWrite = make(map[mem.Addr]bool)
		rt.rvSeen = make(map[mem.Addr]bool)
	}
	inWrite, seen := rt.rvInWrite, rt.rvSeen
	clear(inWrite)
	clear(seen)
	if len(tx.readVers) > 0 {
		for _, k := range writeKeys {
			inWrite[k] = true
		}
	}
	for _, base := range tx.readOrder {
		key := rt.s.lockKey(base)
		if seen[key] {
			continue
		}
		seen[key] = true
		want, recorded := tx.readVers[key]
		if !recorded {
			continue // read served from the write buffer; never versioned
		}
		rt.shard.Revalidations++
		var ok bool
		if inWrite[key] {
			// Our own marker sits on this stripe; the authoritative version
			// is the one its owner node reported with the write-lock grant.
			ok = tx.grantVers[key] == want
		} else {
			cur, locked := rt.s.Mem.LoadVersion(rt.proc, rt.core, key)
			ok = !locked && cur == want
		}
		if !ok {
			rt.s.Mem.UnlockVersions(writeKeys)
			rt.s.Regs.SetStatusLocal(rt.core, tx.id, mem.TxAborted)
			rt.emit(trace.KDoomedRead, tx.id, uint64(key), 0, 0)
			panic(tx.rt.signal(abortSignal{reason: trace.ReasonDoomedRead}))
		}
	}
}

// recordGrantVers stores the versions a DTM node piggybacked on a
// write-lock grant (respLock.Vers, request order). Nil under the visible
// protocol, where this is a no-op.
func (tx *Tx) recordGrantVers(keys []mem.Addr, vers []uint64) {
	if len(vers) == 0 {
		return
	}
	if len(vers) != len(keys) {
		panic("core: write-lock grant version count does not match its batch")
	}
	if tx.grantVers == nil {
		tx.grantVers = make(map[mem.Addr]uint64, len(keys))
	}
	for i, k := range keys {
		tx.grantVers[k] = vers[i]
	}
}
