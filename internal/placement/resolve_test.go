package placement

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

// staleButCurrent reports the one pair a lock request must never carry: an
// owner that is no longer the key's owner under an epoch that is still the
// directory's current one. The receiving node's fast path trusts a
// current-epoch request to be addressed correctly, so this pair makes a
// non-owner grant a lock whose release is later routed to the real owner —
// the lock leaks. The owner is re-read BEFORE the epoch: if the epoch still
// equals the request's afterwards, no remap happened anywhere in between,
// so the re-read owner is the owner the request should have named. (A
// frozen stripe keeps its owner; the receiver's HasPending check covers it.)
func staleButCurrent(d *Directory, key mem.Addr, owner int, epoch uint64) bool {
	cur := d.Owner(key)
	return d.Snapshot().Epoch() == epoch && cur != owner
}

// TestResolveOwnerThenEpochIsStale is the interleaving behind the leak,
// single-stepped: the owner is read, a handoff completes, the epoch is
// read. One snapshot's owner and epoch cannot be split that way.
func TestResolveOwnerThenEpochIsStale(t *testing.T) {
	d, err := New(Config{Nodes: 2, Kind: AdaptiveHier, RegionWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	const key = mem.Addr(0)
	owner := d.Owner(key)
	d.InitiateMove(d.StripeOf(key), 1-owner)
	d.CompleteHandoff(d.StripeOf(key))
	if !staleButCurrent(d, key, owner, d.Snapshot().Epoch()) {
		t.Fatal("owner read before a handoff, epoch after it: expected the stale-but-current pair")
	}
	if v := d.Snapshot(); staleButCurrent(d, key, v.Owner(key), v.Epoch()) {
		t.Fatalf("a snapshot named stale owner %d under current epoch %d", v.Owner(key), v.Epoch())
	}
}

// TestResolveNeverStaleUnderCurrentEpoch flips stripes between two owners
// (freeze, then handoff) on one goroutine while others resolve keys of
// those stripes. Replacing the readers' one snapshot below with Owner
// followed by a second snapshot's Epoch — the read order core once used —
// trips it within milliseconds. A recorder and a validator run beside them
// so -race covers snapshot publication against the heat plane (Record reads
// ownership under the mutex the writers publish under) and against the
// other lock-free readers.
func TestResolveNeverStaleUnderCurrentEpoch(t *testing.T) {
	const stripes = 8
	// ImbalanceFactor prohibitive: Record must not start moves of its own,
	// or the flipper's freezes would find their stripe already frozen.
	d, err := New(Config{Nodes: 2, Kind: AdaptiveHier, RegionWords: stripes, Clusters: []int{0, 1},
		EvalEvery: 64, ImbalanceFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; !stop.Load(); i++ {
			d.Record(i&1, mem.Addr(i%stripes))
		}
	}()
	startResolvers(t, d, stripes, &stop, &readers)
	deadline := time.Now().Add(300 * time.Millisecond)
	for flips := 0; time.Now().Before(deadline) || flips < 1000; flips++ {
		s := flips % stripes
		if !d.InitiateMove(s, 1-stripeOwner(d, s)) {
			t.Fatalf("flip %d: stripe %d would not freeze", flips, s)
		}
		d.CompleteHandoff(s)
	}
	stop.Store(true)
	readers.Wait()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// startResolvers runs the lock-free readers of the two concurrency tests
// until stop: one checks that no snapshot names two valid owners for a key,
// three that a snapshot never pairs a stale owner with the current epoch.
func startResolvers(t *testing.T, d *Directory, stripes int, stop *atomic.Bool, wg *sync.WaitGroup) {
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// One snapshot cannot name two valid owners for a key.
			key, v := mem.Addr(i%stripes), d.Snapshot()
			if v.ValidFor(0, key) && v.ValidFor(1, key) {
				t.Errorf("key %d valid at both nodes in one snapshot", key)
				return
			}
			d.Snapshot().ValidFor(i&1, key)
		}
	}()
	for r := 0; r < 3; r++ {
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				key := mem.Addr(i % stripes)
				if v := d.Snapshot(); staleButCurrent(d, key, v.Owner(key), v.Epoch()) {
					t.Errorf("key %d resolved to stale owner %d under current epoch %d", key, v.Owner(key), v.Epoch())
					return
				}
			}
		}(r)
	}
}

// TestResolveAcrossWakeAndSleep runs the same readers while the heat plane
// itself changes state: a recorder alternates bursts in which one node owns
// every accessed stripe (the plane wakes, gives stripes heat and freezes
// stripes of its own accord) with uniform stretches (it drops them and goes
// dormant), and the test goroutine completes the handoffs. Under -race this
// covers the dormant↔awake transition — heat entries created, decayed and
// dropped under the mutex — against snapshot publication and the lock-free readers.
func TestResolveAcrossWakeAndSleep(t *testing.T) {
	const stripes = 64
	d, err := New(Config{Nodes: 2, Kind: AdaptiveHier, RegionWords: stripes,
		Clusters: []int{0, 1}, EvalEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	startResolvers(t, d, stripes, &stop, &readers)
	recorded := make(chan struct{})
	go func() {
		defer close(recorded)
		for cycle := 0; cycle < 40; cycle++ {
			// Eight epochs on the stripes node cycle%2 owns right now, then
			// eight spread evenly over both nodes' stripes.
			var mine, theirs []mem.Addr
			for s := 0; s < stripes; s++ {
				if stripeOwner(d, s) == cycle%2 {
					mine = append(mine, mem.Addr(s))
				} else {
					theirs = append(theirs, mem.Addr(s))
				}
			}
			for i := 0; i < 8*64; i++ {
				d.Record(i&1, mine[i%len(mine)])
			}
			for i := 0; i < 8*64 && len(theirs) > 0; i += 2 {
				d.Record(i&1, mine[i%len(mine)], theirs[i%len(theirs)])
			}
		}
	}()
	for done := false; !done; {
		select {
		case <-recorded:
			done = true
		default:
		}
		drain(d)
	}
	stop.Store(true)
	readers.Wait()
	if d.AwakeEpochs == 0 || d.AwakeEpochs == d.Evaluated || d.Handoffs == 0 {
		t.Errorf("awake %d of %d epochs, %d handoffs: want the plane to have woken, moved stripes and slept", d.AwakeEpochs, d.Evaluated, d.Handoffs)
	}
	if d.awake || d.HeatStripes() != 0 {
		t.Errorf("ended awake=%v with %d heat stripes after a balanced stretch", d.awake, d.HeatStripes())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResolveTakesNoLock holds the directory mutex — the heat plane's and
// the ownership writers' — on the test goroutine and requires every
// ownership read to return regardless, under each policy, with overrides
// and a frozen stripe in the snapshot.
func TestResolveTakesNoLock(t *testing.T) {
	for _, kind := range Kinds() {
		d, err := New(Config{Nodes: 2, Kind: kind, RegionWords: 8, Clusters: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if kind != Hash {
			d.InitiateMove(0, 1)
			d.CompleteHandoff(0)
			d.InitiateMove(1, 0)
		}
		d.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for key := mem.Addr(0); key < 8; key++ {
				d.Owner(key)
				v := d.Snapshot()
				v.Owner(key)
				v.Epoch()
				v.ValidFor(0, key)
				v.stripe(int(key))
			}
			for n := 0; n < 2; n++ {
				d.HasPending(n)
				d.PendingFor(n)
				d.Snapshot().FreezeGen(n)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Errorf("%v: an ownership read blocked on the directory mutex", kind)
		}
		d.mu.Unlock()
		<-done
	}
}
