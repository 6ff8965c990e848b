package placement

import "repro/internal/mem"

// Policy is one pluggable mapping strategy behind a Directory. Implementations
// must be deterministic pure functions of the directory state: the same
// directory always resolves the same key to the same node, and Repartition
// proposes the same moves for the same counts.
type Policy interface {
	// Name is the policy's flag-friendly name.
	Name() string
	// Owner resolves a lock key under the directory's current assignment.
	Owner(d *Directory, key mem.Addr) int
	// Repartition inspects the closing epoch's per-stripe access counts and
	// returns the migrations to initiate. Static policies return nil.
	Repartition(d *Directory) []Move
}

func policyFor(k Kind) Policy {
	switch k {
	case Adaptive:
		return adaptivePolicy{}
	case AdaptiveHier:
		return hierPolicy{}
	default:
		return hashPolicy{}
	}
}

// hashPolicy is §3.2's static placement: a multiplicative (Murmur3
// finalizer) hash of the lock key, bit-identical to the pre-directory
// System.nodeFor.
type hashPolicy struct{}

func (hashPolicy) Name() string { return "hash" }

func (hashPolicy) Owner(d *Directory, key mem.Addr) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(d.cfg.Nodes))
}

func (hashPolicy) Repartition(*Directory) []Move { return nil }

// nodeLoads sums the closing epoch's access counts per owning node over the
// materialized leaves. Unmaterialized stripes were never recorded this
// window, so their contribution is exactly zero — walking leaves only is
// bit-identical to the historic flat scan. Called with d.mu held.
func nodeLoads(d *Directory) (load []uint64, total uint64) {
	load = make([]uint64, d.cfg.Nodes)
	for _, id := range d.leafOrder {
		lf := d.leaves[id]
		if lf.total == 0 {
			continue
		}
		for i, c := range lf.counts {
			if c != 0 {
				load[lf.owner[i]] += c
				total += c
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
func hottestFit(d *Directory, donor int, maxHeat float64, planned map[int]bool) (stripe int, count, aff uint64) {
	stripe = -1
	for _, id := range d.leafOrder {
		lf := d.leaves[id]
		if lf.total <= count {
			continue // no stripe inside can beat the incumbent
		}
		base := id << d.leafShift
		for i, c := range lf.counts {
			if c <= count || float64(c) > maxHeat || int(lf.owner[i]) != donor || lf.pending[i] >= 0 || planned[base+i] {
				continue
			}
			stripe, count = base+i, c
			if lf.aff != nil {
				aff = lf.aff[i]
			}
		}
	}
	return stripe, count, aff
}

// adaptivePolicy resolves through the directory's stripe-ownership table
// and rebalances it at epoch boundaries: while the hottest node carries
// more than ImbalanceFactor times the mean load, its hottest migratable
// stripe moves to the coolest node — greedy, capped at MaxMoves per round,
// and only when the move strictly narrows the donor/recipient gap.
//
// A stripe hotter than the donor's excess over the mean never moves:
// migrating it would only relocate the hotspot while freezing the most
// contended keys (every in-flight transaction on them aborts during the
// drain). Instead the donor sheds its cooler stripes until the mega-stripe
// is all it owns — the best balance a stripe-granular directory can reach.
type adaptivePolicy struct{}

func (adaptivePolicy) Name() string { return "adaptive" }

func (adaptivePolicy) Owner(d *Directory, key mem.Addr) int {
	return int(d.ownerAt(d.StripeOf(key)))
}

func (adaptivePolicy) Repartition(d *Directory) []Move {
	n := d.cfg.Nodes
	if n < 2 {
		return nil
	}
	load, total := nodeLoads(d)
	if total == 0 {
		return nil
	}
	mean := float64(total) / float64(n)
	var moves []Move
	planned := make(map[int]bool)
	for len(moves) < d.cfg.MaxMoves {
		donor, recip := 0, 0
		for i := 1; i < n; i++ {
			if load[i] > load[donor] {
				donor = i
			}
			if load[i] < load[recip] {
				recip = i
			}
		}
		if donor == recip || float64(load[donor]) <= d.cfg.ImbalanceFactor*mean {
			break
		}
		// Hottest unfrozen stripe of the donor that fits in its excess over
		// the mean and strictly improves the pair; ties break to the lowest
		// stripe index (determinism). The recipient constraint folds into
		// the heat cap: a candidate must also leave the recipient below the
		// donor after the move.
		excess := float64(load[donor]) - mean
		maxHeat := excess
		if gap := float64(load[donor]) - float64(load[recip]) - 1; gap < maxHeat {
			maxHeat = gap
		}
		best, bestCount, _ := hottestFit(d, donor, maxHeat, planned)
		if best < 0 {
			break
		}
		moves = append(moves, Move{Stripe: best, From: donor, To: recip})
		planned[best] = true
		load[donor] -= bestCount
		load[recip] += bestCount
	}
	return moves
}

// hierPolicy is adaptivePolicy plus locality-aware co-mapping: the stripe
// to shed is still the donor's hottest migratable stripe within its excess,
// but the recipient is chosen by the stripe's accessors — the least-loaded
// DTM node in the cluster of the stripe's dominant accessor group (its
// Boyer-Moore affinity vote), falling back to the globally coolest node
// when the affinity cluster has no improving node. Moves therefore pull
// data toward its users (shrinking the remote-access ratio) while still
// strictly narrowing the donor/recipient gap.
type hierPolicy struct{}

func (hierPolicy) Name() string { return "hier" }

func (hierPolicy) Owner(d *Directory, key mem.Addr) int {
	return int(d.ownerAt(d.StripeOf(key)))
}

func (hierPolicy) Repartition(d *Directory) []Move {
	n := d.cfg.Nodes
	if n < 2 {
		return nil
	}
	load, total := nodeLoads(d)
	if total == 0 {
		return nil
	}
	mean := float64(total) / float64(n)
	var moves []Move
	planned := make(map[int]bool)
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
		if donor == coolest || float64(load[donor]) <= d.cfg.ImbalanceFactor*mean {
			break
		}
		excess := float64(load[donor]) - mean
		best, bestCount, aff := hottestFit(d, donor, excess, planned)
		if best < 0 {
			break
		}
		// Co-mapping: prefer the least-loaded node in the candidate's
		// dominant accessor cluster, provided moving there still strictly
		// narrows the gap; otherwise fall back to the globally coolest node.
		recip := -1
		if d.clustered() {
			if cl := affCluster(aff); cl >= 0 {
				for i := 0; i < n; i++ {
					if i != donor && d.cfg.Clusters[i] == cl && (recip < 0 || load[i] < load[recip]) {
						recip = i
					}
				}
				if recip >= 0 && load[recip]+bestCount >= load[donor] {
					recip = -1
				}
			}
		}
		if recip < 0 {
			if load[coolest]+bestCount >= load[donor] {
				break
			}
			recip = coolest
		}
		moves = append(moves, Move{Stripe: best, From: donor, To: recip})
		planned[best] = true
		load[donor] -= bestCount
		load[recip] += bestCount
	}
	return moves
}
