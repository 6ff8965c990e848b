package exp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
)

func TestScaleDiv(t *testing.T) {
	sc := Scale{SizeDiv: 4}
	if got := sc.div(1024, 64); got != 256 {
		t.Errorf("div(1024) = %d", got)
	}
	if got := sc.div(100, 64); got != 64 {
		t.Errorf("floor not applied: %d", got)
	}
}

func TestPerMsAndRatio(t *testing.T) {
	if got := perMs(500, 1_000_000); got != 500 {
		t.Errorf("perMs = %v", got)
	}
	if got := perMs(500, 0); got != 0 {
		t.Errorf("perMs zero-duration = %v", got)
	}
	if ratio(10, 4) != 2.5 || ratio(1, 0) != 0 {
		t.Error("ratio helper wrong")
	}
}

func TestHalfSplit(t *testing.T) {
	cases := map[int]int{2: 1, 3: 1, 4: 2, 48: 24}
	for total, want := range cases {
		if got := halfSplit(total); got != want {
			t.Errorf("halfSplit(%d) = %d, want %d", total, got, want)
		}
	}
}

func TestBuildPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	Overrides{}.build(defaultSys(1)) // 1 core is invalid
}

// TestBuildAppliesSysOverride: Overrides.Sys edits the experiment's Config
// after the experiment filled it in, and leaves the rest of it alone.
func TestBuildAppliesSysOverride(t *testing.T) {
	c := defaultSys(4)
	c.Seed = 9
	ov := Overrides{Sys: func(c *core.Config) { c.Protocol = core.ProtocolTL2 }}
	got := ov.build(c).Config()
	if got.Protocol != core.ProtocolTL2 || got.Seed != 9 || got.TotalCores != 4 {
		t.Fatalf("built config = protocol %v seed %d cores %d, want tl2/9/4", got.Protocol, got.Seed, got.TotalCores)
	}
	if (Overrides{}).build(c).Config().Protocol != c.Protocol {
		t.Fatal("nil Sys changed the experiment's config")
	}
}

func TestPingPongMatchesAnalyticalLatency(t *testing.T) {
	// With one app and one service core there is no queueing, so the
	// simulated round trip must equal the platform's closed form.
	pl := noc.SCC(0)
	want := pl.MsgDelay(0, 1, 16, 1) + pl.MsgDelay(1, 0, 16, 1)
	got := pingPong(pl, 2, 50, 1)
	if got != want {
		t.Fatalf("pingPong RT = %v, want %v", got, want)
	}
	if want < 4500*time.Nanosecond || want > 5600*time.Nanosecond {
		t.Fatalf("2-core RT %v outside the paper's ~5.1µs", want)
	}
}

func TestPingPongScalesWithCores(t *testing.T) {
	pl := noc.SCC(0)
	small := pingPong(pl, 2, 30, 1)
	big := pingPong(pl, 48, 30, 1)
	if big <= small {
		t.Fatalf("48-core RT (%v) should exceed 2-core RT (%v)", big, small)
	}
	// Paper: ~12.4µs at 48 cores.
	if big < 10*time.Microsecond || big > 15*time.Microsecond {
		t.Fatalf("48-core RT = %v, want ~12.4µs", big)
	}
}

func TestMrSizeScaling(t *testing.T) {
	sc := Scale{SizeDiv: 1}
	if mrSize(sc, 256) != 256<<20/64 {
		t.Errorf("mrSize(256MB) = %d", mrSize(sc, 256))
	}
	tiny := Scale{SizeDiv: 1 << 20}
	if mrSize(tiny, 256) != 64<<10 {
		t.Errorf("mrSize floor = %d", mrSize(tiny, 256))
	}
}
