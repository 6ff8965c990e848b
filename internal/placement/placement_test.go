package placement

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/port"
)

func TestParseAndString(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := Parse(""); err != nil || k != Hash {
		t.Errorf("Parse(\"\") = %v, %v, want Hash", k, err)
	}
	// "range" and "adaptive" are the retired contiguous-striping and flat
	// adaptive policies (docs/RETIRED.md): each must fail like any unknown
	// name, naming what is left.
	for _, bad := range []string{"nope", "range", "adaptive"} {
		_, err := Parse(bad)
		if err == nil || !strings.Contains(err.Error(), "(want hash | hier)") {
			t.Errorf("Parse(%q) error = %v, want one listing hash | hier", bad, err)
		}
	}
	if Adaptive != AdaptiveHier {
		t.Errorf("Adaptive = %v, want the alias of AdaptiveHier", Adaptive)
	}
}

func TestNewRejectsZeroNodes(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("New with 0 nodes succeeded")
	}
}

func TestNewRejectsZeroRegionWords(t *testing.T) {
	if _, err := New(Config{Nodes: 2}); err == nil {
		t.Fatal("New without a RegionWords universe succeeded")
	}
}

// stripeOwner is stripe s's owner under the current snapshot.
func stripeOwner(d *Directory, s int) int {
	owner, _ := d.Snapshot().stripe(s)
	return int(owner)
}

// TestHashMatchesLegacyNodeFor pins the hash policy to the seed's
// multiplicative hash so switching resolution behind the directory cannot
// silently change the paper's default placement.
func TestHashMatchesLegacyNodeFor(t *testing.T) {
	d, err := New(Config{Nodes: 24, RegionWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(key mem.Addr) int {
		x := uint64(key)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return int(x % 24)
	}
	for key := mem.Addr(0); key < 4096; key++ {
		if got, want := d.Owner(key), legacy(key); got != want {
			t.Fatalf("Owner(%#x) = %d, legacy hash says %d", uint64(key), got, want)
		}
	}
	if d.Snapshot().Epoch() != 0 {
		t.Errorf("static hash directory at epoch %d, want 0", d.Snapshot().Epoch())
	}
}

// TestDirectoryOwnershipProperty drives adaptive directories through
// arbitrary schedules of skewed accesses, policy-initiated and forced
// migrations, and handoff completions in random order, asserting after
// every step that (a) the structural invariants hold, (b) exactly one node
// considers itself a valid owner of any unfrozen key and none does for a
// frozen key, and (c) ownership only changes when the epoch changes — i.e.
// every key has exactly one owner per epoch, with no loss or duplication.
func TestDirectoryOwnershipProperty(t *testing.T) {
	r := port.NewRand(42)
	for trial := 0; trial < 25; trial++ {
		nodes := 2 + r.Intn(6)
		stripes := 16 << r.Intn(3)
		d, err := New(Config{
			Nodes: nodes, Kind: AdaptiveHier, RegionWords: uint64(stripes),
			EvalEvery: 16 + r.Intn(64), MaxMoves: 1 + r.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Keys stay inside the configured universe (one word per stripe):
		// out-of-universe addresses now panic instead of aliasing.
		keys := make([]mem.Addr, 64)
		for i := range keys {
			keys[i] = mem.Addr(r.Intn(stripes))
		}
		lastEpoch := d.Snapshot().Epoch()
		owners := make([]int, len(keys))
		for i, k := range keys {
			owners[i] = d.Owner(k)
		}
		for step := 0; step < 3000; step++ {
			switch r.Intn(10) {
			case 0: // forced migration of a random stripe
				d.InitiateMove(r.Intn(stripes), r.Intn(nodes))
			case 1, 2: // complete a random node's pending handoffs
				for _, s := range d.PendingFor(r.Intn(nodes)) {
					if r.Intn(2) == 0 {
						d.CompleteHandoff(s)
					}
				}
			default: // skewed accesses (low keys hot), may trigger a round
				d.Record(-1, keys[r.Intn(1+r.Intn(len(keys)))])
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for i, k := range keys {
				o := d.Owner(k)
				if d.Snapshot().Epoch() == lastEpoch && o != owners[i] {
					t.Fatalf("trial %d step %d: key %#x changed owner %d->%d within epoch %d",
						trial, step, uint64(k), owners[i], o, lastEpoch)
				}
				owners[i] = o
			}
			if d.Snapshot().Epoch() < lastEpoch {
				t.Fatalf("trial %d step %d: epoch went backwards", trial, step)
			}
			lastEpoch = d.Snapshot().Epoch()
			// Exactly one valid owner per unfrozen key, none per frozen key.
			k := keys[r.Intn(len(keys))]
			valid := 0
			for n := 0; n < nodes; n++ {
				if d.Snapshot().ValidFor(n, k) {
					valid++
				}
			}
			if _, target := d.Snapshot().stripe(d.StripeOf(k)); target >= 0 {
				if valid != 0 {
					t.Fatalf("trial %d step %d: frozen key %#x has %d valid owners, want 0",
						trial, step, uint64(k), valid)
				}
			} else if valid != 1 {
				t.Fatalf("trial %d step %d: key %#x has %d valid owners, want 1",
					trial, step, uint64(k), valid)
			}
		}
		// Drain every pending handoff; the stripe universe must remain a
		// disjoint partition over the nodes.
		for n := 0; n < nodes; n++ {
			for _, s := range d.PendingFor(n) {
				d.CompleteHandoff(s)
			}
			if d.HasPending(n) {
				t.Fatalf("trial %d: node %d still pending after drain", trial, n)
			}
		}
		total := 0
		perNode := make([]int, nodes)
		for s := 0; s < stripes; s++ {
			perNode[stripeOwner(d, s)]++
			total++
		}
		if total != stripes {
			t.Fatalf("trial %d: %d stripes accounted, want %d", trial, total, stripes)
		}
	}
}

// TestAdaptiveRepartitionMovesHeat checks that a skewed access stream makes
// the policy migrate hot stripes off the overloaded node.
func TestAdaptiveRepartitionMovesHeat(t *testing.T) {
	const nodes = 4
	d, err := New(Config{Nodes: nodes, Kind: AdaptiveHier, RegionWords: 64, EvalEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer keys that all land on node 0 under the interleaved start
	// (stripes 0, 4, 8, 12 with 4 nodes).
	hot := []mem.Addr{0, 4, 8, 12}
	for i := 0; i < 2048; i++ {
		d.Record(-1, hot[i%len(hot)])
	}
	if d.Migrations == 0 {
		t.Fatal("no migrations initiated under a fully skewed stream")
	}
	// Complete the handoffs (no lock table here, so every stripe is
	// trivially drained) and verify heat actually spread out.
	for n := 0; n < nodes; n++ {
		for _, s := range d.PendingFor(n) {
			d.CompleteHandoff(s)
		}
	}
	owners := make(map[int]bool)
	for _, k := range hot {
		owners[d.Owner(k)] = true
	}
	if len(owners) < 2 {
		t.Errorf("hot stripes still all owned by one node after repartitioning")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
