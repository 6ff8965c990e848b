package placement

import "repro/internal/mem"

// hashOwner is §3.2's resolution: a multiplicative (Murmur3 finalizer) hash
// of the lock key, bit-identical to the pre-directory System.nodeFor — a
// pure function no core shares state over.
func hashOwner(key mem.Addr, nodes int) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(nodes))
}

// nodeLoads sums the per-stripe access counts per owning node over the
// materialized leaves, into the directory's load scratch — the loads the
// policy balances. They are not the coarse tier's: a stripe touched once in
// a window decays to zero at its end, so these sums weigh heat that persists
// across windows (what a migration can carry along) over the one-touch tail,
// and a stripe counts for its current owner however recently it moved.
// Called with d.mu held.
func nodeLoads(d *Directory) (load []uint64, total uint64) {
	load = d.load
	clear(load)
	v := d.Snapshot()
	for _, id := range d.leafOrder {
		base := id << d.leafShift
		for i, c := range d.leaves[id].counts {
			if c != 0 {
				owner, _ := v.stripe(base + i)
				load[owner] += uint64(c)
				total += uint64(c)
			}
		}
	}
	return load, total
}

// hottestFit scans the materialized stripes in ascending order for the
// hottest stripe owned by donor that is not frozen, not already planned,
// and no hotter than maxHeat; ties break to the lowest stripe index. A
// whole leaf is skipped when its aggregate heat cannot beat the incumbent.
// Returns the stripe, its count and its packed affinity vote, or stripe -1.
// Called with d.mu held.
func hottestFit(d *Directory, donor int, maxHeat float64, planned []Move) (stripe int, count, aff uint64) {
	stripe = -1
	v := d.Snapshot()
	for _, id := range d.leafOrder {
		lf := d.leaves[id]
		if lf.total <= count {
			continue // no stripe inside can beat the incumbent
		}
		base := id << d.leafShift
		for i, c := range lf.counts {
			if uint64(c) <= count || float64(c) > maxHeat {
				continue
			}
			s := base + i
			owner, pending := v.stripe(s)
			if int(owner) != donor || pending >= 0 || isPlanned(planned, s) {
				continue
			}
			stripe, count = s, uint64(c)
			if lf.aff != nil {
				aff = lf.aff[i]
			}
		}
	}
	return stripe, count, aff
}

// isPlanned reports whether this round already plans to move stripe s; a
// round holds at most MaxMoves moves, so the scan beats a set.
func isPlanned(moves []Move, s int) bool {
	for _, m := range moves {
		if m.Stripe == s {
			return true
		}
	}
	return false
}

// repartition is the epoch-boundary round of the adaptive policy while the
// directory is awake: it inspects the closing window's per-stripe access
// counts and returns the migrations to initiate — a deterministic pure
// function of the directory state, in the directory's scratch (valid until
// the next round). Called with d.mu held.
//
// While the hottest node is hot (Directory.hot: more than ImbalanceFactor
// times the mean load, by more than sampling noise), its hottest migratable
// stripe moves away — greedy, capped at MaxMoves per round, and only when
// the move strictly narrows the donor/recipient gap. A stripe hotter than
// the donor's excess over the mean never moves: migrating it would only
// relocate the hotspot while freezing the most contended keys (every
// in-flight transaction on them aborts during the drain). Instead the donor
// sheds its cooler stripes until the mega-stripe is all it owns — the best
// balance a stripe-granular directory can reach.
//
// The recipient is chosen by the stripe's accessors (locality-aware
// co-mapping): the least-loaded DTM node in the cluster of the stripe's
// dominant accessor group (its Boyer-Moore affinity vote), falling back to
// the coolest node when the affinity cluster has no improving node or the
// directory has no clusters. Moves therefore pull data toward its users
// (shrinking the remote-access ratio) while still strictly narrowing the
// gap. A stripe whose accessors' cluster is the donor's own never falls
// back: moving it would buy balance with locality, so the round ends there.
func repartition(d *Directory) []Move {
	n := d.cfg.Nodes
	if n < 2 {
		return nil
	}
	load, total := nodeLoads(d)
	if total == 0 {
		return nil
	}
	mean := float64(total) / float64(n)
	moves := d.moves[:0]
	for len(moves) < d.cfg.MaxMoves {
		donor, coolest := 0, 0
		for i := 1; i < n; i++ {
			if load[i] > load[donor] {
				donor = i
			}
			if load[i] < load[coolest] {
				coolest = i
			}
		}
		if donor == coolest || !d.hot(load[donor], mean) {
			break
		}
		// Hottest unfrozen stripe of the donor that fits in its excess over
		// the mean; ties break to the lowest stripe index (determinism).
		best, bestCount, aff := hottestFit(d, donor, float64(load[donor])-mean, moves)
		if best < 0 {
			break
		}
		recip := -1
		if cl := affCluster(aff); d.clustered() && cl >= 0 {
			for i := 0; i < n; i++ {
				if i != donor && d.cfg.Clusters[i] == cl && (recip < 0 || load[i] < load[recip]) {
					recip = i
				}
			}
			if recip >= 0 && load[recip]+bestCount >= load[donor] {
				recip = -1
			}
		}
		if recip < 0 && d.clustered() && affCluster(aff) == d.cfg.Clusters[donor] {
			break // its accessors' cluster has no other node: the stripe stays with them
		}
		if recip < 0 {
			if load[coolest]+bestCount >= load[donor] {
				break
			}
			recip = coolest
		}
		moves = append(moves, Move{Stripe: best, From: donor, To: recip})
		load[donor] -= bestCount
		load[recip] += bestCount
	}
	d.moves = moves
	return moves
}
