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
	return d.Epoch() == epoch && cur != owner
}

// TestResolveOwnerThenEpochIsStale is the interleaving behind the leak,
// single-stepped: the owner is read, a handoff completes, the epoch is
// read. Resolve cannot be split that way.
func TestResolveOwnerThenEpochIsStale(t *testing.T) {
	d, err := New(Config{Nodes: 2, Kind: Adaptive, Stripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	const key = mem.Addr(0)
	owner := d.Owner(key)
	d.InitiateMove(d.StripeOf(key), 1-owner)
	d.CompleteHandoff(d.StripeOf(key))
	if !staleButCurrent(d, key, owner, d.Epoch()) {
		t.Fatal("owner read before a handoff, epoch after it: expected the stale-but-current pair")
	}
	if o, e := d.Resolve(key); staleButCurrent(d, key, o, e) {
		t.Fatalf("Resolve returned stale owner %d under current epoch %d", o, e)
	}
}

// TestResolveNeverStaleUnderCurrentEpoch flips stripes between two owners
// (freeze, then handoff) on one goroutine while others resolve keys of
// those stripes. Replacing Resolve below with Owner followed by Epoch — the
// read order core used before — trips it within milliseconds.
func TestResolveNeverStaleUnderCurrentEpoch(t *testing.T) {
	const stripes = 8
	d, err := New(Config{Nodes: 2, Kind: Adaptive, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; !stop.Load(); i++ {
				key := mem.Addr(i % stripes)
				if owner, epoch := d.Resolve(key); staleButCurrent(d, key, owner, epoch) {
					t.Errorf("key %d resolved to stale owner %d under current epoch %d", key, owner, epoch)
					return
				}
			}
		}(r)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for flips := 0; time.Now().Before(deadline) || flips < 1000; flips++ {
		s := flips % stripes
		if !d.InitiateMove(s, 1-d.StripeOwner(s)) {
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
