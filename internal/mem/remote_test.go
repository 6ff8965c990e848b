package mem

import "testing"

// homeRemote forwards a replica's word storage to another Memory, the net
// backend's rank-0 home, in process.
type homeRemote struct{ home *Memory }

func (h homeRemote) ReadRaw(a Addr) uint64                     { return h.home.ReadRaw(a) }
func (h homeRemote) WriteRaw(a Addr, v uint64)                 { h.home.WriteRaw(a, v) }
func (h homeRemote) ReadBatchRaw(base Addr, dst []uint64)      { h.home.ReadBatchRaw(base, dst) }
func (h homeRemote) WriteBatchRaw(addrs []Addr, vals []uint64) { h.home.WriteBatchRaw(addrs, vals) }
func (h homeRemote) Alloc(n, mc int) Addr                      { return h.home.Alloc(n, mc) }

// materialized reports whether any directory level or page exists.
func (m *Memory) materialized() bool {
	var walk func(*dirNode) bool
	walk = func(d *dirNode) bool {
		if d.pages.Load() != nil {
			return true
		}
		for i := range d.kids {
			if kid := d.kids[i].Load(); kid != nil {
				return true
			}
		}
		return false
	}
	for r := range m.dir {
		if walk(&m.dir[r]) {
			return true
		}
	}
	return false
}

// TestSetRemoteDropsReplica: a replica that ran the same setup as its home
// keeps no page once its storage forwards, and its raw word accesses,
// FillRaw and ReadRaw included, read and write the home's words.
func TestSetRemoteDropsReplica(t *testing.T) {
	pl, home := newTestMem()
	replica := New(pl)
	const n = 3 * pageWords
	var base Addr
	for _, m := range []*Memory{home, replica} { // replicated setup
		base = m.Alloc(n, 0)
		m.FillRaw(base, n, []uint64{5})
	}
	if !replica.materialized() {
		t.Fatal("the replica's setup materialized no page")
	}
	replica.SetRemote(homeRemote{home})
	if replica.materialized() {
		t.Fatal("the replica keeps its pages after SetRemote")
	}
	home.WriteRaw(base+7, 9)
	if got := replica.ReadRaw(base + 7); got != 9 {
		t.Errorf("replica ReadRaw = %d, want the home's 9", got)
	}
	replica.FillRaw(base+pageWords-2, 4, []uint64{1, 2})
	for i, want := range []uint64{5, 1, 2, 1, 2, 1, 2, 1, 2, 5} {
		a := base + pageWords - 3 + Addr(i)
		if got := home.ReadRaw(a); got != want {
			t.Errorf("home word %#x = %d after the replica's FillRaw, want %d", a, got, want)
		}
	}
	dst := make([]uint64, 3)
	if replica.ReadBatchRaw(base+pageWords-1, dst); dst[0] != 2 || dst[1] != 1 || dst[2] != 2 {
		t.Errorf("replica ReadBatchRaw = %v, want [2 1 2]", dst)
	}
	if replica.materialized() {
		t.Error("forwarded accesses materialized a page on the replica")
	}
}
