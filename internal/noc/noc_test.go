package noc

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSettingsTableMatchesPaper(t *testing.T) {
	// §5.1: five rows, tile/mesh/DRAM in MHz.
	want := [5][3]int{
		{533, 800, 800},
		{800, 1600, 1066},
		{800, 1600, 800},
		{800, 800, 1066},
		{800, 800, 800},
	}
	for i, s := range Settings {
		if s.ID != i {
			t.Errorf("setting %d has ID %d", i, s.ID)
		}
		if s.Tile != want[i][0] || s.Mesh != want[i][1] || s.DRAM != want[i][2] {
			t.Errorf("setting %d = %+v, want %v", i, s, want[i])
		}
	}
}

func TestSCCGeometry(t *testing.T) {
	pl := SCC(0)
	if pl.NumCores() != 48 {
		t.Fatalf("NumCores = %d, want 48", pl.NumCores())
	}
	// Cores 0 and 1 share tile (0,0); cores 46,47 share tile (5,3).
	if h := pl.Hops(0, 1); h != 0 {
		t.Errorf("Hops(0,1) = %d, want 0", h)
	}
	if h := pl.Hops(0, 47); h != 8 {
		t.Errorf("Hops(0,47) = %d, want 8 (5+3)", h)
	}
	x, y := pl.UnitCoord(47)
	if x != 5 || y != 3 {
		t.Errorf("UnitCoord(47) = (%d,%d), want (5,3)", x, y)
	}
}

func TestOpteronGeometry(t *testing.T) {
	pl := Opteron()
	if pl.NumCores() != 48 {
		t.Fatalf("NumCores = %d, want 48", pl.NumCores())
	}
	if h := pl.Hops(0, 11); h != 0 {
		t.Errorf("same-socket hops = %d, want 0", h)
	}
	if h := pl.Hops(0, 12); h != 1 {
		t.Errorf("cross-socket hops = %d, want 1", h)
	}
}

func TestHopsMetricProperties(t *testing.T) {
	pl := SCC(0)
	n := pl.NumCores()
	if err := quick.Check(func(a8, b8, c8 uint8) bool {
		a, b, c := int(a8)%n, int(b8)%n, int(c8)%n
		hab, hba := pl.Hops(a, b), pl.Hops(b, a)
		if hab != hba { // symmetry
			return false
		}
		if a == b && hab != 0 { // identity (same core => same tile)
			return false
		}
		if hab < 0 {
			return false
		}
		// Triangle inequality for Manhattan distance.
		return pl.Hops(a, c) <= hab+pl.Hops(b, c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// roundTrip mirrors the Fig. 8(a) experiment: an app core sends to a service
// core that replies immediately; both sides poll `peers` flags.
func roundTrip(pl *Platform, a, s, peers int) time.Duration {
	return pl.MsgDelay(a, s, 16, peers) + pl.MsgDelay(s, a, 16, peers)
}

func TestFig8aCalibrationSCC(t *testing.T) {
	pl := SCC(0)
	// 2 cores: app 0, service 1, same tile, one peer each.
	rt2 := roundTrip(&pl, 0, 1, 1)
	if rt2 < 4600*time.Nanosecond || rt2 > 5600*time.Nanosecond {
		t.Errorf("2-core RT = %v, want ~5.1µs", rt2)
	}
	// 48 cores: 24 app + 24 service; average over all pairs.
	var sum time.Duration
	n := 0
	for a := 0; a < 24; a++ {
		for s := 24; s < 48; s++ {
			sum += roundTrip(&pl, a, s, 24)
			n++
		}
	}
	rt48 := sum / time.Duration(n)
	if rt48 < 11*time.Microsecond || rt48 > 14*time.Microsecond {
		t.Errorf("48-core RT = %v, want ~12.4µs", rt48)
	}
}

func TestFig8aOrderingAcrossPlatforms(t *testing.T) {
	scc, scc800, opt := SCC(0), SCC(1), Opteron()
	avg := func(pl *Platform) time.Duration {
		var sum time.Duration
		n := 0
		for a := 0; a < 24; a++ {
			for s := 24; s < 48; s++ {
				sum += roundTrip(pl, a, s, 24)
				n++
			}
		}
		return sum / time.Duration(n)
	}
	l0, l1, lo := avg(&scc), avg(&scc800), avg(&opt)
	// §7: SCC800 messaging is fastest; the Opteron library is slower than
	// SCC800 but faster than the default-setting SCC.
	if !(l1 < lo && lo < l0) {
		t.Errorf("latency ordering violated: SCC=%v SCC800=%v Opteron=%v", l0, l1, lo)
	}
}

func TestMsgDelayMonotonicInPeersAndHops(t *testing.T) {
	pl := SCC(0)
	if pl.MsgDelay(0, 2, 16, 2) <= pl.MsgDelay(0, 2, 16, 1) {
		t.Error("delay not increasing in peers")
	}
	if pl.MsgDelay(0, 46, 16, 1) <= pl.MsgDelay(0, 2, 16, 1) {
		t.Error("delay not increasing in hops")
	}
	if pl.MsgDelay(0, 2, 256, 1) <= pl.MsgDelay(0, 2, 16, 1) {
		t.Error("delay not increasing in payload size")
	}
	if pl.MsgDelay(0, 2, 16, 0) != pl.MsgDelay(0, 2, 16, 1) {
		t.Error("peers < 1 should clamp to 1")
	}
}

func TestComputeScaling(t *testing.T) {
	scc, scc800, opt := SCC(0), SCC(1), Opteron()
	d := time.Microsecond
	if scc.Compute(d) != d {
		t.Errorf("SCC setting 0 should be the nominal baseline, got %v", scc.Compute(d))
	}
	if !(scc800.Compute(d) < scc.Compute(d)) {
		t.Error("SCC800 compute should be faster than SCC")
	}
	if !(opt.Compute(d) < scc800.Compute(d)) {
		t.Error("Opteron compute should be fastest")
	}
}

func TestSCCSettingScalesComponents(t *testing.T) {
	s0, s1, s4 := SCC(0), SCC(1), SCC(4)
	if !(s1.PerHop < s0.PerHop) {
		t.Error("faster mesh should reduce per-hop latency")
	}
	if !(s1.MemBase < s0.MemBase) {
		t.Error("faster DRAM should reduce memory latency")
	}
	// Setting 4 has the same mesh/DRAM as setting 0 but faster tiles.
	if s4.PerHop != s0.PerHop {
		t.Error("setting 4 mesh latency should equal setting 0")
	}
	if !(s4.SendOverhead < s0.SendOverhead) {
		t.Error("setting 4 software overhead should be lower than setting 0")
	}
}

func TestInvalidSettingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SCC(9) did not panic")
		}
	}()
	SCC(9)
}

func TestMemDelayAndHops(t *testing.T) {
	pl := SCC(0)
	if pl.MCCount() != 4 {
		t.Fatalf("MCCount = %d", pl.MCCount())
	}
	// Core 0 sits on tile (0,0) = MC 0's corner.
	if h := pl.MemHops(0, 0); h != 0 {
		t.Errorf("MemHops(0,0) = %d, want 0", h)
	}
	// MC 3 is the far corner.
	if h := pl.MemHops(0, 3); h != 8 {
		t.Errorf("MemHops(0,3) = %d, want 8", h)
	}
	if pl.MemDelay(0, 3) <= pl.MemDelay(0, 0) {
		t.Error("farther MC should cost more")
	}
}

func TestAtomicDelayGrowsWithDistance(t *testing.T) {
	pl := SCC(0)
	if pl.AtomicDelay(0, 47) <= pl.AtomicDelay(0, 1) {
		t.Error("remote atomic should cost more across the mesh")
	}
	opt := Opteron()
	if opt.AtomicDelay(0, 1) <= 0 {
		t.Error("atomic delay must be positive")
	}
}

func TestElasticReadEconomics(t *testing.T) {
	// §6.1/Fig 7b rationale: on the SCC a shared-memory access must be
	// cheaper than a message round trip, otherwise elastic-read could not
	// outperform read-locking.
	pl := SCC(0)
	rt := roundTrip(&pl, 0, 24, 24)
	maxMem := pl.MemDelay(0, 3) + pl.MemService
	if maxMem >= rt {
		t.Errorf("memory access (%v) should be cheaper than message RT (%v)", maxMem, rt)
	}
}

func TestMCCountFloor(t *testing.T) {
	pl := Platform{NumMCs: 0}
	if pl.MCCount() != 1 {
		t.Fatalf("MCCount floor = %d, want 1", pl.MCCount())
	}
}
