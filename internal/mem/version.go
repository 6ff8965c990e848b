package mem

import (
	"fmt"
	"sync/atomic"
)

// TL2-style version metadata: a sharded global version clock and a
// per-object (per lock stripe) version table. The visible-read protocol
// never touches either; the invisible-read protocol mode (core.ProtocolTL2)
// uses them to validate local reads without any DTM round trip.
//
// The clock is sharded to keep update commits from serializing on one
// counter: each committer ticks its own shard, and a version is the pair
// (shard, per-shard count) packed into one word. A transaction's read
// snapshot is therefore a small vector — one count per shard — not a single
// scalar. That vector form is what makes validation sound: "version v is
// covered by snapshot rv" means rv's entry for v's shard is at least v's
// count, which can only be true if the snapshot read that shard after the
// tick that produced v. A scalar sum of shards would admit snapshots that
// cover a version without having observed its tick, and with it mixed
// pre/post states of one committer's write set.

// versionShardShift splits the packed version word: the top bits carry the
// shard index, the low bits the per-shard count.
const versionShardShift = 56

// versionCountMask masks the per-shard count out of a packed version.
const versionCountMask = (uint64(1) << versionShardShift) - 1

// VClock is the sharded global version clock. Shards are padded to their
// own cache lines so concurrent committers on the live backend never false-
// share a counter.
type VClock struct {
	shards []vclockShard
}

type vclockShard struct {
	v atomic.Uint64
	_ [7]uint64 // pad to one cache line
}

// NewVClock returns a clock with the given number of shards (at least 1,
// at most 256 — the shard index must fit the packed version's top byte).
func NewVClock(shards int) *VClock {
	if shards < 1 || shards > 256 {
		panic(fmt.Sprintf("mem: vclock shard count %d out of range [1,256]", shards))
	}
	return &VClock{shards: make([]vclockShard, shards)}
}

// NumShards returns the shard count.
func (c *VClock) NumShards() int { return len(c.shards) }

// Snapshot appends the current per-shard counts to dst (pass dst[:0] to
// reuse a buffer) and returns the snapshot vector.
func (c *VClock) Snapshot(dst []uint64) []uint64 {
	for i := range c.shards {
		dst = append(dst, c.shards[i].v.Load())
	}
	return dst
}

// Tick advances the given shard and returns the resulting packed version,
// strictly newer (on its shard) than any snapshot taken before the tick.
func (c *VClock) Tick(shard int) uint64 {
	s := shard % len(c.shards)
	cnt := c.shards[s].v.Add(1)
	if cnt > versionCountMask {
		panic("mem: vclock shard count overflow")
	}
	return uint64(s)<<versionShardShift | cnt
}

// VersionLEQ reports whether the packed version ver is covered by the
// snapshot vector snap: the snapshot observed ver's shard at or after the
// tick that produced it. The zero version (never written) is covered by
// every snapshot.
func VersionLEQ(ver uint64, snap []uint64) bool {
	if ver == 0 {
		return true
	}
	shard := int(ver >> versionShardShift)
	if shard >= len(snap) {
		return false
	}
	return ver&versionCountMask <= snap[shard]
}

// The version table lives on the pages: a lock stripe's metadata — the
// packed version of its last committed write-back and the write-back marker
// a committer holds while its writes are in flight — sits at the stripe
// key's slot of the key's page, in arrays the page grows on its first
// LockVersions (8 bytes and one bit per slot; a page no committer ever
// wrote through carries neither). A reader observing the marker cannot tell
// old from new data and must abort. Version words are read and written
// under their page's lock like the data words, and a call that needs a
// stripe's version together with words on other pages locks them all
// (mem.go, "Atomicity").

// version returns the metadata of stripe key; called with pg.mu held.
func (pg *page) version(key Addr) (ver uint64, locked bool) {
	if pg.ver == nil {
		return 0, false
	}
	i := key & pageMask
	return pg.ver[i], pg.marked[i>>6]>>(i&63)&1 != 0
}

// ReadVersioned returns the n-word object at base together with the version
// metadata of its lock stripe key, all observed in one indivisible step
// (within one controller an object read is untorn). It charges one batched
// access of n+1 words — the version word co-located with the object rides
// the same controller visit.
func (m *Memory) ReadVersioned(p Ctx, core int, base Addr, n int, key Addr) (vals []uint64, ver uint64, locked bool) {
	if n <= 0 {
		panic("mem: ReadVersioned of non-positive size")
	}
	return m.ReadVersionedTo(p, core, base, key, make([]uint64, n))
}

// ReadVersionedTo is ReadVersioned reading the object into dst (len(dst)
// words) — identical atomicity and charging, no allocation — and returns
// dst as vals.
func (m *Memory) ReadVersionedTo(p Ctx, core int, base Addr, key Addr, dst []uint64) (vals []uint64, ver uint64, locked bool) {
	n := len(dst)
	if n <= 0 {
		panic("mem: ReadVersionedTo of empty buffer")
	}
	m.charge(p, core, m.MCOf(base), n+1, read)
	ver, locked = m.readWith(base, key, dst)
	return dst, ver, locked
}

// LoadVersion returns the version metadata of one lock stripe, charging a
// one-word access (commit-time read-set revalidation pays this per stripe).
func (m *Memory) LoadVersion(p Ctx, core int, key Addr) (ver uint64, locked bool) {
	m.charge(p, core, m.MCOf(key), 1, read)
	pg := m.pageOf(key)
	pg.mu.Lock()
	ver, locked = pg.version(key)
	pg.mu.Unlock()
	return ver, locked
}

// VersionRaw returns a stripe's current version without charging latency.
// DTM nodes use it to piggyback versions on write-lock grants (the lookup
// rides the already-charged lock service cost); tests use it to inspect
// state.
func (m *Memory) VersionRaw(key Addr) uint64 {
	pg := m.pageOf(key)
	pg.mu.Lock()
	ver, _ := pg.version(key)
	pg.mu.Unlock()
	return ver
}

// LockVersions sets the write-back marker of every given stripe, charging
// one batched write access per controller touched (one word per stripe).
// The caller must hold the stripes' DTM write locks; a marker already set
// would mean two committers hold the same write lock, so it panics.
func (m *Memory) LockVersions(p Ctx, core int, keys []Addr) {
	if len(keys) > 0 {
		m.chargeWrites(p, core, keys)
	}
	m.setMarkers(keys, true, nil, "version marker of %#x already locked")
}

// UnlockVersions clears the write-back markers without advancing versions —
// the abort path of a commit whose revalidation failed after the markers
// were set. Free of charge, like the other abort bookkeeping.
func (m *Memory) UnlockVersions(keys []Addr) {
	m.setMarkers(keys, false, nil, "unlock of unmarked stripe %#x")
}

// PublishVersions installs ver as every given stripe's version and clears
// the write-back markers, charging one batched write access per controller
// touched. Called after the write set has persisted: from this instant
// readers see the new data under the new version instead of the marker.
func (m *Memory) PublishVersions(p Ctx, core int, keys []Addr, ver uint64) {
	if len(keys) > 0 {
		m.chargeWrites(p, core, keys)
	}
	m.setMarkers(keys, false, &ver, "publish to unmarked stripe %#x")
}

// setMarkers flips every key's write-back marker to on — and, when ver is
// non-nil, installs *ver as the stripe's version — in one step over all
// the keys' pages. A marker already in the target state panics with msg.
func (m *Memory) setMarkers(keys []Addr, on bool, ver *uint64, msg string) {
	var buf [4]pageRef
	s := pageSet(buf[:0])
	for _, k := range keys {
		s = s.add(m, k)
	}
	s.lock()
	for _, k := range keys {
		pg := s.of(k)
		if pg.ver == nil {
			pg.ver, pg.marked = new([pageWords]uint64), new([pageWords / 64]uint64)
		}
		i := k & pageMask
		word, bit := &pg.marked[i>>6], uint64(1)<<(i&63)
		if (*word&bit != 0) == on {
			s.unlock()
			panic("mem: " + fmt.Sprintf(msg, uint64(k)))
		}
		*word ^= bit
		if ver != nil {
			pg.ver[i] = *ver
		}
	}
	s.unlock()
}
