package mem

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/port"
)

// tallyCtx totals what a memory charges it. Without a clock, asking it the
// time is the bug the test is after: in real time nothing consumes a
// controller's queueing horizon, so nothing may compute one.
type tallyCtx struct {
	clock bool
	calls int
	total time.Duration
}

func (c *tallyCtx) Now() port.Time {
	if !c.clock {
		panic("mem: a realtime memory asked the time")
	}
	return 0 // a frozen clock: every access queues behind all before it
}

func (c *tallyCtx) Advance(d time.Duration) { c.calls++; c.total += d }

// accessSequence drives every charged entry point once or twice from cores
// 0 and 5 over two controllers, and checks what was read.
func accessSequence(t *testing.T, m *Memory, r *Registers, p Ctx) {
	t.Helper()
	a, b := m.Alloc(8, 0), m.Alloc(8, 2)
	m.WriteBatch(p, 0, []Addr{a, a + 1, b, b + 3}, []uint64{11, 12, 21, 24})
	if v := m.Read(p, 5, a+1); v != 12 {
		t.Errorf("Read = %d, want 12", v)
	}
	if got := m.ReadBatchTo(p, 0, b, make([]uint64, 4)); !reflect.DeepEqual(got, []uint64{21, 0, 0, 24}) {
		t.Errorf("ReadBatchTo = %v", got)
	}
	m.LockVersions(p, 0, []Addr{a})
	m.Write(p, 0, a, 13)
	m.PublishVersions(p, 0, []Addr{a}, 7)
	if vals, ver, locked := m.ReadVersionedTo(p, 5, a, a, make([]uint64, 2)); vals[0] != 13 || vals[1] != 12 || ver != 7 || locked {
		t.Errorf("ReadVersionedTo = %v, version %d, locked %v", vals, ver, locked)
	}
	if ver, _ := m.LoadVersion(p, 5, a); ver != 7 {
		t.Errorf("LoadVersion = %d, want 7", ver)
	}

	r.SetStatusLocal(5, 9, TxPending)
	if sw, id, st := r.CASStatusRemoteObserve(p, 0, 5, 9, TxPending, TxAborted); !sw || id != 9 || st != TxAborted {
		t.Errorf("CASStatusRemoteObserve lost to nobody: %v, (%d, %v)", sw, id, st)
	}
	if sw, id, st := r.CASStatusRemoteObserve(p, 0, 5, 9, TxPending, TxAborted); sw || id != 9 || st != TxAborted {
		t.Errorf("CASStatusRemoteObserve = %v, (%d, %v)", sw, id, st)
	}
	if r.TAS(p, 0, 5) || !r.TAS(p, 0, 5) {
		t.Error("TAS did not set the bit once")
	}
	r.TASRelease(p, 0, 5)
	if r.TAS(p, 0, 5) {
		t.Error("TASRelease left the bit set")
	}
}

// TestRealtimeMemoryRunsNoModel: a memory and registers built for real time
// do every access without asking the time and without a price, and count
// exactly the words a priced memory counts; New and NewRegisters still run
// the whole price list, to the nanosecond it charged before the split.
func TestRealtimeMemoryRunsNoModel(t *testing.T) {
	pl := noc.SCC(0)

	priced := tallyCtx{clock: true}
	pm, pr := New(&pl), NewRegisters(&pl)
	accessSequence(t, pm, pr, &priced)
	pst := pm.Stats()
	// Pinned on the parent of the commit that added NewRealtime.
	const wantTotal, wantWait = 13745 * time.Nanosecond, port.Time(1705)
	if priced.total != wantTotal || pst.WaitTime != wantWait {
		t.Errorf("New charged %v (queueing %v), want %v (%v)", priced.total, pst.WaitTime, wantTotal, wantWait)
	}

	var rt tallyCtx
	rm, rr := NewRealtime(&pl), NewRealtimeRegisters(pl.NumCores())
	accessSequence(t, rm, rr, &rt)
	rst := rm.Stats()
	if rt.total != 0 || rst.WaitTime != 0 {
		t.Errorf("NewRealtime charged %v (queueing %v), want nothing", rt.total, rst.WaitTime)
	}
	if rt.calls != priced.calls {
		t.Errorf("NewRealtime advanced in %d steps, New in %d: the port's yield count must not depend on the backend", rt.calls, priced.calls)
	}
	if rst.Reads != pst.Reads || rst.Writes != pst.Writes || !reflect.DeepEqual(rst.PerMC, pst.PerMC) {
		t.Errorf("word counts differ: realtime %+v, priced %+v", rst, pst)
	}
	if rst.Reads != 9 || rst.Writes != 7 || !reflect.DeepEqual(rst.PerMC, []uint64{10, 0, 6, 0}) {
		t.Errorf("counted %d reads, %d writes, per controller %v; want 9, 7, [10 0 6 0]", rst.Reads, rst.Writes, rst.PerMC)
	}
	if rr.RemoteOps != pr.RemoteOps || rr.RemoteOps != 6 {
		t.Errorf("remote register ops: realtime %d, priced %d, want 6", rr.RemoteOps, pr.RemoteOps)
	}
}
