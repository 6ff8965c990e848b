package core

import (
	"repro/internal/mem"
	"repro/internal/port"
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
// attempt start (begin: tx.rv, one counter per shard). A committer takes
// Tx.commit's steps — tx.go states their order, once, for both protocols —
// and what TL2 puts into them is validate, once the write locks are granted
// and the commit is non-abortable (a write-back marker on every write
// stripe, a tick of its clock shard for the new version wv, a re-check of
// the read set), and publish, once the write set has persisted (wv
// installed, markers cleared). A reader accepts a stripe only if it is
// unmarked and its version is covered by rv (mem.VersionLEQ): rv covering a
// version means the snapshot loaded that shard AFTER the tick that produced it,
// which happened AFTER the markers went up — so an uncovered-or-marked
// stripe can be mid-write-back and is refused (a doomed read aborts rather
// than return a possibly torn value). Hence all accepted reads reflect
// fully published commits no newer than the snapshot: every read-only
// prefix of a transaction is a consistent view as of its snapshot instant,
// even for attempts that later abort — which is opacity.
//
// Serialization instants (KCommit's B word, what the sim audit replays): an
// update commit serializes at its clock tick — revalidation proves the read
// set unchanged from first read through a point after the tick, and the
// write locks + markers keep the write set exclusive from before the tick
// through publication. A transaction that wrote nothing serializes at its
// snapshot instant: its reads were each validated against that same
// snapshot, so no commit-time work (and no message) is needed at all.
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

// tl2Proto is the invisible-read strategy described above.
type tl2Proto struct{}

// tl2Read is a read-set entry's first-read value, which a re-read returns
// (no lock pins the object), and the version validate compares against.
type tl2Read struct {
	wordSpan
	ver uint64
}

func (*tl2Proto) readsHoldLocks() bool { return false }

// begin loads the version clock into the attempt's read snapshot. Each
// attempt gets a fresh one: retrying with the aborted attempt's snapshot
// would doom every read of a stripe committed since. The per-runtime buffer
// is reused across attempts (only one attempt is ever live per runtime). A
// transaction that writes nothing serializes here.
func (*tl2Proto) begin(tx *Tx) {
	rt := tx.rt
	if tx.grantVers == nil {
		tx.grantVers = make(map[mem.Addr]uint64)
	}
	rt.proc.Advance(rt.s.compute(costs.ClockSnap))
	rt.rvBuf = rt.s.clock.Snapshot(rt.rvBuf[:0])
	tx.rv = rt.rvBuf
	tx.serialAt = rt.proc.Now()
}

// firstRead is the invisible read: fetch the object and its stripe's version
// metadata in one atomic memory visit, refuse anything the snapshot does
// not cover. No message leaves the core. Every kind reads this way: the
// elastic relaxations exist to soften visible read locking, which TL2 never
// performs.
func (*tl2Proto) firstRead(tx *Tx, base mem.Addr, n int) []uint64 {
	rt := tx.rt
	tx.checkAborted() // eager-mode enemies can still remote-abort us
	span, buf := rt.wordBuf(n)
	vals, ver, locked := rt.s.Mem.ReadVersionedTo(rt.proc, rt.core, base, base, buf)
	// Doomed: a committer's write-back is in flight, or the object is newer
	// than our snapshot. Returning the value could tear the snapshot, so the
	// attempt dies here.
	if locked || !mem.VersionLEQ(ver, tx.rv) {
		rt.shard.DoomedReads++
		tx.doomed(base)
	}
	tx.reads.put(base)
	tx.tl2Reads = append(tx.tl2Reads, tl2Read{span, ver})
	if rt.rec != nil {
		rt.emit(trace.KRead, tx.id, uint64(base), trace.ValueWord(vals), trace.ReadWord(trace.HoldInvisible, n))
	}
	rt.shard.LocalReads++
	return vals
}

// validate marks the write stripes, ticks the clock and re-checks every
// stripe of the read set after the tick. Marking is safe: we hold the
// stripes' DTM write locks and are already Committing, so no CM can revoke
// them (abortEnemies refuses), and a marker therefore always belongs to a
// lock holder — two markers on one stripe would need two holders of the same
// write lock. Stripes we also write are checked against the version the DTM
// node piggybacked on the grant (no memory traffic); pure-read stripes pay
// one charged version load each. Any change — or a foreign write-back marker
// — since the first read fails the commit (Tx.rollback clears tx.marked).
func (*tl2Proto) validate(tx *Tx) (mem.Addr, bool) {
	rt := tx.rt
	keys := tx.writeKeys()
	rt.s.Mem.LockVersions(rt.proc, rt.core, keys)
	tx.marked = keys
	rt.proc.Advance(rt.s.compute(costs.ClockTick))
	tx.wv = rt.s.clock.Tick(rt.core)
	rt.shard.ClockAdvances++
	rt.emit(trace.KClockTick, tx.id, tx.wv, 0, 0)
	tx.tickAt = rt.proc.Now()
	rt.emit(trace.KPhaseBegin, tx.id, uint64(trace.PhaseRevalidate), 0, 0)
	for j, e := range tx.reads.entries {
		key, want := e, tx.tl2Reads[j].ver // one entry, and one version, per object
		rt.shard.Revalidations++
		var ok bool
		if granted, mine := tx.grantVers[key]; mine {
			// Our own marker sits on this stripe (every write stripe's grant
			// carries its version); the authoritative version is the one its
			// owner node reported with the write-lock grant.
			ok = granted == want
		} else {
			cur, locked := rt.s.Mem.LoadVersion(rt.proc, rt.core, key)
			ok = !locked && cur == want
		}
		if !ok {
			return key, false
		}
	}
	rt.emit(trace.KPhaseEnd, tx.id, uint64(trace.PhaseRevalidate), 0, 0)
	rt.revalLat.Observe(rt.proc.Now() - tx.tickAt)
	return 0, true
}

// publish installs the new version and clears the markers: readers see the
// marker until the very instant the new data is fully in place. The commit
// serializes at its clock tick.
func (*tl2Proto) publish(tx *Tx) port.Time {
	tx.rt.s.Mem.PublishVersions(tx.rt.proc, tx.rt.core, tx.marked, tx.wv)
	return tx.tickAt
}

// recordGrantVers stores the versions a DTM node piggybacked on a
// write-lock grant (respLock.Vers, request order): none under the visible
// protocol, where this is a no-op.
func (tx *Tx) recordGrantVers(keys []mem.Addr, vers []uint64) {
	if len(vers) != 0 && len(vers) != len(keys) {
		panic("core: write-lock grant version count does not match its batch")
	}
	for i, v := range vers {
		tx.grantVers[keys[i]] = v
	}
}
