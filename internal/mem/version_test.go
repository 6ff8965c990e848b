package mem

import (
	"testing"

	"repro/internal/port"
	"repro/internal/sim"
)

func TestVClockSnapshotCoversOwnTicks(t *testing.T) {
	c := NewVClock(4)
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	var vers []uint64
	for i := 0; i < 10; i++ {
		vers = append(vers, c.Tick(i%4))
	}
	snap := c.Snapshot(nil)
	for _, v := range vers {
		if !VersionLEQ(v, snap) {
			t.Fatalf("version %#x not covered by the snapshot taken after it", v)
		}
	}
	// A tick after the snapshot must NOT be covered.
	if v := c.Tick(2); VersionLEQ(v, snap) {
		t.Fatalf("version %#x ticked after the snapshot is covered by it", v)
	}
}

func TestVClockZeroVersionAlwaysCovered(t *testing.T) {
	c := NewVClock(8)
	// Version 0 means "never written since boot": every snapshot covers it,
	// including the empty one taken before any tick.
	if !VersionLEQ(0, c.Snapshot(nil)) {
		t.Fatal("zero version not covered by the boot snapshot")
	}
}

func TestVClockShardsIndependent(t *testing.T) {
	c := NewVClock(2)
	v0 := c.Tick(0)
	snap := c.Snapshot(nil)
	v1 := c.Tick(1)
	if !VersionLEQ(v0, snap) {
		t.Fatal("shard-0 tick before snapshot not covered")
	}
	if VersionLEQ(v1, snap) {
		t.Fatal("shard-1 tick after snapshot wrongly covered")
	}
	// Snapshot reuse: appending into the same backing array must refresh.
	snap = c.Snapshot(snap[:0])
	if !VersionLEQ(v1, snap) {
		t.Fatal("refreshed snapshot misses shard-1 tick")
	}
}

func TestVClockBadShardCountPanics(t *testing.T) {
	for _, n := range []int{0, -1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewVClock(%d) did not panic", n)
				}
			}()
			NewVClock(n)
		}()
	}
}

func TestVersionTableLifecycle(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	base := m.Alloc(4, 0)
	clock := NewVClock(2)
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			m.Write(p, 0, base+Addr(i), uint64(i+1))
		}
		keys := []Addr{base, base + 2}

		// Fresh objects: version 0, unlocked.
		if ver, locked := m.LoadVersion(p, 0, base); ver != 0 || locked {
			t.Errorf("fresh LoadVersion = %d, %v", ver, locked)
		}
		if m.VersionRaw(base) != 0 {
			t.Errorf("fresh VersionRaw = %d", m.VersionRaw(base))
		}

		// Lock markers: set, observable through every read path, cleared by
		// publish with the new version.
		m.LockVersions(p, 0, keys)
		if _, locked := m.LoadVersion(p, 0, base); !locked {
			t.Error("marker not observable via LoadVersion")
		}
		if _, _, locked := m.ReadVersioned(p, 0, base, 2, base); !locked {
			t.Error("marker not observable via ReadVersioned")
		}
		wv := clock.Tick(1)
		m.PublishVersions(p, 0, keys, wv)
		vals, ver, locked := m.ReadVersioned(p, 0, base, 2, base)
		if locked {
			t.Error("marker survived PublishVersions")
		}
		if ver != wv {
			t.Errorf("published version = %#x, want %#x", ver, wv)
		}
		if vals[0] != 1 || vals[1] != 2 {
			t.Errorf("values = %v", vals)
		}

		// Unlock without publish (abort path) keeps the old version.
		m.LockVersions(p, 0, keys)
		m.UnlockVersions(keys)
		if got, locked := m.LoadVersion(p, 0, base); got != wv || locked {
			t.Errorf("after abort unlock: ver=%#x locked=%v, want %#x unlocked", got, locked, wv)
		}
	})
	k.Run(port.Infinity)
}

func TestVersionOpsChargeMemoryTraffic(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	base := m.Alloc(2, 0)
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		m.ReadVersioned(p, 0, base, 2, base)
		if p.Now() == start {
			t.Error("ReadVersioned charged no latency")
		}
		start = p.Now()
		m.LockVersions(p, 0, []Addr{base})
		if p.Now() == start {
			t.Error("LockVersions charged no latency")
		}
		start = p.Now()
		m.PublishVersions(p, 0, []Addr{base}, NewVClock(1).Tick(0))
		if p.Now() == start {
			t.Error("PublishVersions charged no latency")
		}
		// VersionRaw is the DTM-local fast path: free by design.
		start = p.Now()
		m.VersionRaw(base)
		if p.Now() != start {
			t.Error("VersionRaw charged latency")
		}
	})
	k.Run(port.Infinity)
}

func TestDoubleLockVersionPanics(t *testing.T) {
	_, m := newTestMem()
	k := sim.New(1)
	base := m.Alloc(1, 0)
	k.Spawn("c", func(p *sim.Proc) {
		m.LockVersions(p, 0, []Addr{base})
		defer func() {
			if recover() == nil {
				t.Error("double LockVersions did not panic")
			}
		}()
		m.LockVersions(p, 0, []Addr{base})
	})
	k.Run(port.Infinity)
}

func TestUnlockUnmarkedVersionPanics(t *testing.T) {
	_, m := newTestMem()
	base := m.Alloc(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("UnlockVersions on unmarked key did not panic")
		}
	}()
	m.UnlockVersions([]Addr{base})
}
