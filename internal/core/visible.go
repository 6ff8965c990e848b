package core

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

// visibleProto is the paper's protocol (Config.Protocol == ProtocolVisible):
// a read acquires its object's read lock from the responsible DTM node
// before it touches shared memory (Algorithm 4 — visible reads, early
// acquisition), so a conflict is met when it happens and the read set needs
// no validation at commit. The elastic kinds (§6.1) soften exactly that
// locking: ElasticEarly gives read locks back before commit (EarlyRelease),
// ElasticRead takes none and re-reads a two-object window instead.
type visibleProto struct{}

func (*visibleProto) begin(*Tx)            {}
func (*visibleProto) readsHoldLocks() bool { return true }

func (*visibleProto) firstRead(tx *Tx, base mem.Addr, n int) []uint64 {
	if tx.kind == ElasticRead {
		return tx.elasticRead(base, n)
	}
	rt := tx.rt
	tx.checkAborted()
	rt.rpcLock(tx, base, lockRead)
	// Record the grant before anything can abort the attempt: if the lock
	// were not in the read set when the post-read abort check fires, the
	// cleanup would never release it and the stale entry could block that
	// object forever.
	off, buf := rt.wordBuf(n)
	vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, base, buf)
	tx.reads.put(base, off, n)
	tx.serialAt = rt.proc.Now()
	rt.emit(trace.KRead, tx.id, uint64(base), 0, 0)
	tx.checkAborted()
	return vals
}

// validate has nothing to prove for reads that hold locks; an ElasticRead's
// window gets its final consecutive-read check, at the persist instant (its
// re-reads are folded into the persist and cost nothing).
func (*visibleProto) validate(tx *Tx) (mem.Addr, bool) {
	if tx.kind == ElasticRead {
		return tx.windowChanged(false)
	}
	return 0, true
}

// publish: an update serializes when its persist completes, all locks held.
func (*visibleProto) publish(tx *Tx) port.Time { return tx.rt.proc.Now() }

// elasticRead performs a lock-free read with consecutive-read validation
// (§6.1, elastic-read): before reading the next object, every object in the
// window is re-read from shared memory; a change aborts the attempt.
// Re-reading an object already in the window returns the windowed value
// without rotating the window, so update operations that re-touch the node
// they are about to write keep that node under commit-time validation.
func (tx *Tx) elasticRead(base mem.Addr, n int) []uint64 {
	rt := tx.rt
	for i := 0; i < tx.nwin; i++ {
		if tx.window[i].base == base {
			return tx.window[i].vals
		}
	}
	if at, ok := tx.windowChanged(true); !ok {
		tx.doomed(at)
	}
	_, buf := rt.wordBuf(n)
	vals := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, base, buf)
	if tx.nwin < len(tx.window) {
		tx.window[tx.nwin] = winEntry{base, vals}
		tx.nwin++
	} else {
		tx.window[0] = tx.window[1]
		tx.window[1] = winEntry{base, vals}
	}
	return vals
}

// windowChanged re-reads the window entries and reports the first object
// whose value changed (ok false). charged selects whether the re-reads cost
// memory latency.
func (tx *Tx) windowChanged(charged bool) (at mem.Addr, ok bool) {
	rt := tx.rt
	for _, w := range tx.window[:tx.nwin] {
		changed := false
		if charged {
			if cap(rt.winBuf) < len(w.vals) {
				rt.winBuf = make([]uint64, len(w.vals))
			}
			cur := rt.s.Mem.ReadBatchTo(rt.proc, rt.core, w.base, rt.winBuf[:len(w.vals)])
			changed = !slices.Equal(cur, w.vals)
		} else {
			for j, was := range w.vals {
				if rt.s.Mem.ReadRaw(w.base+mem.Addr(j)) != was {
					changed = true
					break
				}
			}
		}
		if changed {
			return w.base, false
		}
	}
	return 0, true
}

// EarlyRelease drops the read locks of the given objects before commit
// (elastic-early, §6.1). The release messages are fire-and-forget, like
// DSTM's explicit release. Objects not in the read set are ignored.
func (tx *Tx) EarlyRelease(bases ...mem.Addr) {
	rt := tx.rt
	if tx.kind != ElasticEarly {
		panic(fmt.Sprintf("core: EarlyRelease on %v transaction", tx.kind))
	}
	if !rt.s.proto.readsHoldLocks() {
		// Invisible reads hold no locks to release; the reads stay in the
		// set and remain snapshot-validated (strictly stronger semantics).
		return
	}
	for _, b := range bases {
		if tx.reads.release(b) {
			rt.relAdd(tx, false, b)
		}
	}
	rt.sendReleases(&rt.shard.EarlyReleases)
}
