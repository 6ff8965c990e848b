package placement

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/port"
)

// TestHierHeatLifecycleProperty drives hierarchical directories through
// random schedules of clustered accesses, forced migrations, handoff
// completions and full decay cycles — stripes entering the heat map and
// leaving it, the plane waking and sleeping along the way — asserting after
// every step that the structural invariants hold: in particular that exactly
// one node owns every stripe (holding heat or not), that a freeze or a
// handoff on a stripe whose heat decayed away or was dropped by a sleep is
// sound (heat is heat only; nothing pins an entry).
func TestHierHeatLifecycleProperty(t *testing.T) {
	r := port.NewRand(99)
	for trial := 0; trial < 20; trial++ {
		nodes := 2 + r.Intn(6)
		stripes := 64 << r.Intn(3)
		clusters := make([]int, nodes)
		for i := range clusters {
			clusters[i] = r.Intn(1 + i)
		}
		d, err := New(Config{
			Nodes: nodes, Kind: AdaptiveHier, RegionWords: uint64(stripes), Clusters: clusters,
			EvalEvery: 32 + r.Intn(32), MaxMoves: 1 + r.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4000; step++ {
			switch r.Intn(10) {
			case 0:
				d.InitiateMove(r.Intn(stripes), r.Intn(nodes))
			case 1, 2:
				for _, s := range d.PendingFor(r.Intn(nodes)) {
					if r.Intn(2) == 0 {
						d.CompleteHandoff(s)
					}
				}
			default:
				// Alternating bursts: four stripes that all start on node 0
				// (the plane wakes; stripes gain heat and move), then
				// uniform traffic (it goes back to sleep).
				k := nodes * r.Intn(4)
				if step/400%2 == 1 {
					k = r.Intn(stripes)
				}
				d.Record(r.Intn(len(clusters)), mem.Addr(k))
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		if d.AwakeEpochs == 0 || d.AwakeEpochs == d.Evaluated {
			t.Fatalf("trial %d: awake %d of %d epochs, want both states visited", trial, d.AwakeEpochs, d.Evaluated)
		}
		// Drain everything: no frozen stripe may survive the drain.
		for n := 0; n < nodes; n++ {
			for _, s := range d.PendingFor(n) {
				d.CompleteHandoff(s)
			}
			if d.HasPending(n) {
				t.Fatalf("trial %d: node %d still pending after drain", trial, n)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("trial %d post-drain: %v", trial, err)
		}
		// One owner per stripe across the whole universe.
		perNode := make([]int, nodes)
		for s := 0; s < d.NumStripes(); s++ {
			o := stripeOwner(d, s)
			if o < 0 || o >= nodes {
				t.Fatalf("trial %d: stripe %d owned by %d", trial, s, o)
			}
			perNode[o]++
		}
		total := 0
		for _, c := range perNode {
			total += c
		}
		if total != d.NumStripes() {
			t.Fatalf("trial %d: %d stripes accounted, want %d", trial, total, d.NumStripes())
		}
	}
}

// TestHierLeavesMergeWhenCold checks the decay half of the lifecycle while
// the plane stays awake: after a burst of localized traffic stops, a stripe
// that cools leaves the heat map at an epoch boundary while the hot one
// stays — even though the cooled stripes were migrated, because ownership
// lives in the snapshot and pins nothing.
func TestHierLeavesMergeWhenCold(t *testing.T) {
	d, err := New(Config{Nodes: 4, Kind: AdaptiveHier, RegionWords: 1 << 12, EvalEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Half the traffic on one distant stripe of node 0's: hotter than its
	// node's excess over the mean, it cannot move, so the plane wakes and
	// stays awake. The other half hammers eight nearby stripes, node 0's
	// too: they gain heat and some of them move away.
	const distant = 4000
	for i := 0; i < 1024; i++ {
		d.Record(-1, mem.Addr(distant), mem.Addr(4*(i%8)))
		drain(d)
	}
	if got := d.HeatStripes(); got != 9 {
		t.Fatalf("%d heat stripes for a nine-stripe working set, want 9", got)
	}
	if d.Handoffs == 0 {
		t.Fatal("no stripe moved off the one loaded node")
	}
	// The distant stripe alone keeps evaluation ticking while the eight
	// stripes' counts decay to zero.
	for i := 0; i < 64*256; i++ {
		d.Record(-1, mem.Addr(distant))
	}
	if _, hot := d.stripes[distant]; d.HeatStripes() != 1 || !hot || !d.awake {
		t.Errorf("%d heat stripes, distant one held %v, awake %v: want the hot stripe only, the cooled ones gone, still awake", d.HeatStripes(), hot, d.awake)
	}
	if n := len(d.Snapshot().o.over); n == 0 {
		t.Error("no cooled stripe is off its default owner: not the case under test")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// drain completes every pending handoff, as DTM nodes with empty lock tables
// would.
func drain(d *Directory) {
	for n := 0; n < d.Nodes(); n++ {
		for _, s := range d.PendingFor(n) {
			d.CompleteHandoff(s)
		}
	}
}

// TestHeatPlaneSleepsAndWakes drives directories through phases of 1024-key
// epochs over a 2^20-stripe universe and checks the gate's claims after
// each: a uniform stream never wakes the plane, whatever the node count (32
// nodes see ~32 samples a node an epoch: the parent's bare 1.25 factor fired
// on that noise thousands of times); a stream that turns skewed wakes it
// within two epochs and moves the hot stripes; when the skew stops every
// stripe's heat goes; and a Zipf stream over windows long enough to fill the
// stripe map stays inside the cap and still moves its head. After every
// epoch the map holds at most twice one window's accesses: counts halve at
// each boundary, so no more can survive.
func TestHeatPlaneSleepsAndWakes(t *testing.T) {
	const words = 1 << 20
	uniform := func(r *port.Rand) mem.Addr { return mem.Addr(r.Intn(words)) }
	dormant := func(t *testing.T, d *Directory, peak int) {
		if d.Migrations != 0 || d.AwakeEpochs != 0 || peak != 0 {
			t.Errorf("uniform stream: %d migrations, awake %d of %d epochs, peak %d heat stripes; want none",
				d.Migrations, d.AwakeEpochs, d.Evaluated, peak)
		}
		r := port.NewRand(2)
		if got := testing.AllocsPerRun(4096, func() { d.Record(0, uniform(&r)) }); got != 0 {
			t.Errorf("dormant Record allocates %.3f times per key, want 0", got)
		}
	}
	// Half the accesses on four stripes that all start on node 0 of 6.
	hot4 := func(r *port.Rand) mem.Addr {
		if r.Intn(2) == 0 {
			return mem.Addr(6000 * r.Intn(4))
		}
		return uniform(r)
	}
	// Zipf(0.99) ranks by the continuous inverse CDF, scattered over the
	// universe by an odd multiplier.
	zipfStripe := func(rank int) int { return rank * 2654435761 % words }
	zipf := func(r *port.Rand) mem.Addr {
		const e = 1 - 0.99
		x := math.Pow((math.Pow(words, e)-1)*r.Float64()+1, 1/e)
		return mem.Addr(zipfStripe(min(int(x), words) - 1))
	}
	type phase struct {
		epochs int
		key    func(*port.Rand) mem.Addr
		after  func(t *testing.T, d *Directory, peak int) // peak: most heat stripes any epoch so far ended with
	}
	for _, tc := range []struct {
		name      string
		nodes     int
		evalEvery int
		phases    []phase
	}{
		{"uniform/2", 2, 1024, []phase{{200, uniform, dormant}}},
		{"uniform/6", 6, 1024, []phase{{200, uniform, dormant}}},
		{"uniform/32", 32, 1024, []phase{{200, uniform, dormant}}},
		{"skew-comes-and-goes", 6, 1024, []phase{
			{20, uniform, dormant},
			{2, hot4, func(t *testing.T, d *Directory, _ int) {
				if !d.awake || d.HeatStripes() == 0 {
					t.Errorf("two skewed epochs in: awake %v, %d heat stripes", d.awake, d.HeatStripes())
				}
			}},
			{8, hot4, func(t *testing.T, d *Directory, _ int) {
				moved := 0
				for i := 0; i < 4; i++ {
					if stripeOwner(d, 6000*i) != 0 {
						moved++
					}
				}
				if moved < 2 {
					t.Errorf("%d of the four hot stripes left node 0 (%d migrations), want at least 2", moved, d.Migrations)
				}
			}},
			{10, uniform, func(t *testing.T, d *Directory, _ int) {
				if d.awake || d.HeatStripes() != 0 {
					t.Errorf("ten uniform epochs after the skew: awake %v, %d heat stripes; want asleep and empty",
						d.awake, d.HeatStripes())
				}
				if len(d.Snapshot().o.over) == 0 {
					t.Error("the moved stripes went home: ownership must outlive the heat that moved it")
				}
			}},
		}},
		{"zipf-fills-the-table", 8, 1 << 18, []phase{{6, zipf, func(t *testing.T, d *Directory, peak int) {
			if peak != maxStripes {
				t.Errorf("peak %d heat stripes, want the cap %d reached and held: not the case under test", peak, maxStripes)
			}
			moved := 0
			for rank := 0; rank < 32; rank++ {
				if s := zipfStripe(rank); stripeOwner(d, s) != s%8 {
					moved++
				}
			}
			if d.Migrations == 0 || moved == 0 {
				t.Errorf("%d migrations, %d of the 32 head stripes moved: a full table starved the stripes worth moving", d.Migrations, moved)
			}
		}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clusters := make([]int, tc.nodes)
			for i := range clusters {
				clusters[i] = i % 2
			}
			d, err := New(Config{Nodes: tc.nodes, Kind: AdaptiveHier, RegionWords: words,
				Clusters: clusters, EvalEvery: tc.evalEvery})
			if err != nil {
				t.Fatal(err)
			}
			r, peak := port.NewRand(1), 0
			for _, ph := range tc.phases {
				for e := 0; e < ph.epochs; e++ {
					for i := 0; i < tc.evalEvery-1; i++ {
						d.Record(i&1, ph.key(&r))
					}
					n := d.HeatStripes() // before the boundary's decay
					peak = max(peak, n)
					d.Record(1, ph.key(&r))
					drain(d)
					if bound := 2 * (tc.evalEvery + 1); n > bound || d.HeatStripes() > bound {
						t.Fatalf("epoch %d: %d heat stripes before the boundary, %d after: past 2 x (EvalEvery + 1) = %d", d.Evaluated, n, d.HeatStripes(), bound)
					}
				}
				if err := d.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				ph.after(t, d, peak)
			}
		})
	}
}

// TestHierDirectoryWorkIsOTouched is the scaling witness at the directory
// level: a million-stripe universe with a small, skewed working set wakes
// the heat plane and holds heat for stripes of the working set only, never
// in proportion to the universe.
func TestHierDirectoryWorkIsOTouched(t *testing.T) {
	const universeWords = 1 << 20
	d, err := New(Config{Nodes: 8, Kind: AdaptiveHier, RegionWords: universeWords, EvalEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStripes() != universeWords {
		t.Fatalf("stripe universe = %d, want %d", d.NumStripes(), universeWords)
	}
	// A 4096-word working set scattered across the universe, whose first
	// eight keys take half the accesses.
	r := port.NewRand(7)
	keys := make([]mem.Addr, 4096)
	for i := range keys {
		keys[i] = mem.Addr(r.Intn(universeWords))
	}
	peak := 0
	for i := 0; i < 1<<16; i++ {
		k := keys[r.Intn(len(keys))]
		if i%2 == 0 {
			k = keys[r.Intn(8)]
		}
		d.Record(i%4, k)
		peak = max(peak, d.HeatStripes())
	}
	if d.AwakeEpochs == 0 || peak == 0 {
		t.Fatalf("awake %d of %d epochs, peak %d heat stripes: the skew never woke the plane, not the case under test", d.AwakeEpochs, d.Evaluated, peak)
	}
	if peak > len(keys) { // one entry per key is the worst case
		t.Fatalf("%d heat stripes for a %d-key working set", peak, len(keys))
	}
	if 100*peak >= d.NumStripes() {
		t.Fatalf("peak heat stripes %d not ≪ stripe universe %d", peak, d.NumStripes())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHierCoMappingPullsDataToAccessors checks the locality bias at the
// policy level: with two clusters whose cores touch disjoint stripe sets
// (each set starting on the wrong side), the hier policy must migrate
// stripes toward their accessors' cluster, strictly lowering the remote
// access ratio across epoch windows and ending below the same stream with
// migration disabled (a prohibitive ImbalanceFactor: the interleaved start).
func TestHierCoMappingPullsDataToAccessors(t *testing.T) {
	run := func(imbalance float64) *Directory {
		d, err := New(Config{
			Nodes: 4, Kind: AdaptiveHier, RegionWords: 256, Clusters: []int{0, 0, 1, 1},
			EvalEvery: 512, MaxMoves: 8, ImbalanceFactor: imbalance,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := port.NewRand(11)
		// Cluster 0 hammers stripes whose interleaved default owners sit in
		// cluster 1 and vice versa: every access starts remote, and only
		// affinity-aware migration can fix it. Heat is skewed (Zipf-ish via
		// nested Intn) and stable across the whole run.
		for i := 0; i < 1<<16; i++ {
			k := r.Intn(1 + r.Intn(64))
			if i%2 == 0 {
				d.Record(0, mem.Addr(4*k+2)) // default owner 2: cluster 1
			} else {
				d.Record(1, mem.Addr(4*k+1)) // default owner 1: cluster 0
			}
			// Stripes drain instantly: no lock table in this test.
			for n := 0; n < 4; n++ {
				for _, s := range d.PendingFor(n) {
					d.CompleteHandoff(s)
				}
			}
		}
		return d
	}
	hier := run(0) // the default factor
	start := run(1e9)
	hist := hier.RemoteHistory()
	if len(hist) < 2 {
		t.Fatalf("only %d epoch windows recorded", len(hist))
	}
	first, last := hist[0], hist[len(hist)-1]
	if last >= first {
		t.Errorf("hier remote ratio did not drop: first window %.3f, last %.3f", first, last)
	}
	if start.Migrations != 0 {
		t.Fatalf("%d migrations under a prohibitive imbalance factor", start.Migrations)
	}
	hl, hr := hier.AccessLocality()
	sl, sr := start.AccessLocality()
	hierRatio := float64(hr) / float64(hl+hr)
	startRatio := float64(sr) / float64(sl+sr)
	if hierRatio >= startRatio {
		t.Errorf("co-mapping remote ratio %.3f not below the interleaved start's %.3f", hierRatio, startRatio)
	}
	if err := hier.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteHistoryKeepsTheRecentWindows pins what RemoteHistory returns on
// a run longer than its ring: the most recent remoteHistLen windows, oldest
// first, from storage allocated once at New.
func TestRemoteHistoryKeepsTheRecentWindows(t *testing.T) {
	// ImbalanceFactor prohibitive: no migration may turn a remote key local.
	d, err := New(Config{Nodes: 2, Kind: AdaptiveHier, RegionWords: 8, Clusters: []int{0, 1},
		EvalEvery: 16, ImbalanceFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	epochs := func(n int, key mem.Addr) {
		for i := 0; i < n*16; i++ {
			d.Record(0, key) // cluster 0: stripe 0 is local, stripe 1 remote
		}
	}
	epochs(5, 0)
	if got := d.RemoteHistory(); len(got) != 5 || got[0] != 0 || got[4] != 0 {
		t.Fatalf("five local windows recorded as %v", got)
	}
	epochs(remoteHistLen, 0)
	ring := &d.remoteHist[0]
	epochs(10, 1)
	got := d.RemoteHistory()
	if len(got) != remoteHistLen || got[0] != 0 || got[remoteHistLen-11] != 0 || got[remoteHistLen-10] != 1 || got[remoteHistLen-1] != 1 {
		t.Errorf("after %d windows, the last 10 remote: len %d, [0]=%v, [-11]=%v, [-10]=%v, [-1]=%v",
			d.Evaluated, len(got), got[0], got[remoteHistLen-11], got[remoteHistLen-10], got[remoteHistLen-1])
	}
	if ring != &d.remoteHist[0] || len(d.remoteHist) != remoteHistLen {
		t.Error("the history ring was reallocated or grew")
	}
}
