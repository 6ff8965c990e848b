package core

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// testRecord is a fixed-size application struct exercising FuncCodec.
type testRecord struct {
	ID    uint64
	Score int64
	Live  bool
	Next  mem.Addr
}

var testRecordCodec = FuncCodec(4,
	func(r testRecord, dst []uint64) {
		dst[0] = r.ID
		dst[1] = uint64(r.Score)
		if r.Live {
			dst[2] = 1
		} else {
			dst[2] = 0
		}
		dst[3] = uint64(r.Next)
	},
	func(src []uint64) testRecord {
		return testRecord{
			ID:    src[0],
			Score: int64(src[1]),
			Live:  src[2] != 0,
			Next:  mem.Addr(src[3]),
		}
	},
)

// roundTrip encodes v and decodes it back through c.
func roundTrip[T any](c WordCodec[T], v T) T {
	buf := make([]uint64, c.Words())
	c.Encode(v, buf)
	return c.Decode(buf)
}

// TestCodecRoundTripProperty drives every supported codec instantiation
// with arbitrary values and asserts Decode(Encode(v)) == v.
func TestCodecRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(v uint64) bool { return roundTrip(Uint64Codec(), v) == v }, nil); err != nil {
		t.Errorf("uint64 codec: %v", err)
	}
	if err := quick.Check(func(v int64) bool { return roundTrip(Int64Codec(), v) == v }, nil); err != nil {
		t.Errorf("int64 codec: %v", err)
	}
	for _, v := range []bool{true, false} {
		if roundTrip(BoolCodec(), v) != v {
			t.Errorf("bool codec mangles %v", v)
		}
	}
	if err := quick.Check(func(v uint64) bool {
		a := mem.Addr(v)
		return roundTrip(AddrCodec(), a) == a
	}, nil); err != nil {
		t.Errorf("addr codec: %v", err)
	}
	if err := quick.Check(func(id uint64, score int64, live bool, next uint64) bool {
		r := testRecord{ID: id, Score: score, Live: live, Next: mem.Addr(next)}
		return roundTrip(testRecordCodec, r) == r
	}, nil); err != nil {
		t.Errorf("struct FuncCodec: %v", err)
	}
}

// TestCodecWidths pins the word counts the lock protocol depends on.
func TestCodecWidths(t *testing.T) {
	if Uint64Codec().Words() != 1 || Int64Codec().Words() != 1 ||
		BoolCodec().Words() != 1 || AddrCodec().Words() != 1 {
		t.Fatal("scalar codecs must be one word")
	}
	if testRecordCodec.Words() != 4 {
		t.Fatal("record codec width wrong")
	}
}

// TestFuncCodecValidation: invalid FuncCodec arguments panic at
// construction, not first use.
func TestFuncCodecValidation(t *testing.T) {
	for name, build := range map[string]func(){
		"zero words": func() { FuncCodec(0, func(uint64, []uint64) {}, func([]uint64) uint64 { return 0 }) },
		"nil enc":    func() { FuncCodec(1, nil, func([]uint64) uint64 { return 0 }) },
		"nil dec":    func() { FuncCodec[uint64](1, func(uint64, []uint64) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestTVarTransactionalRoundTrip runs a typed Set/Get of every built-in
// instantiation plus the struct codec through real transactions.
func TestTVarTransactionalRoundTrip(t *testing.T) {
	s := testSystem(t, nil)
	u := NewTVar(s, Uint64Codec(), 7)
	i := NewTVar(s, Int64Codec(), -3)
	b := NewTVar(s, BoolCodec(), false)
	a := NewTVar(s, AddrCodec(), mem.Nil)
	r := NewTVar(s, testRecordCodec, testRecord{})

	if u.GetRaw() != 7 || i.GetRaw() != -3 || b.GetRaw() || a.GetRaw() != mem.Nil {
		t.Fatal("initial raw values wrong")
	}

	want := testRecord{ID: 9, Score: -42, Live: true, Next: u.Addr()}
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			u.Set(tx, u.Get(tx)+1)
			i.Set(tx, i.Get(tx)-1)
			b.Set(tx, !b.Get(tx))
			a.Set(tx, u.Addr())
			r.Set(tx, want)
		})
	})
	s.RunToCompletion()

	if got := u.GetRaw(); got != 8 {
		t.Errorf("uint64 TVar = %d, want 8", got)
	}
	if got := i.GetRaw(); got != -4 {
		t.Errorf("int64 TVar = %d, want -4", got)
	}
	if !b.GetRaw() {
		t.Error("bool TVar not flipped")
	}
	if got := a.GetRaw(); got != u.Addr() {
		t.Errorf("addr TVar = %#x, want %#x", uint64(got), uint64(u.Addr()))
	}
	if got := r.GetRaw(); got != want {
		t.Errorf("record TVar = %+v, want %+v", got, want)
	}
	// A view over the same base observes the same object.
	if got := TVarAt(s, testRecordCodec, r.Addr()).GetRaw(); got != want {
		t.Errorf("TVarAt view = %+v, want %+v", got, want)
	}
}

// TestTVarPlacement: the Near/At constructors place the allocation behind
// the requested memory controller.
func TestTVarPlacement(t *testing.T) {
	s := testSystem(t, nil)
	mcs := s.Platform().MCCount()
	if mcs < 2 {
		t.Skip("platform has a single memory controller")
	}
	for mc := 0; mc < mcs; mc++ {
		v := NewTVarAt(s, Uint64Codec(), mc, 1)
		if got := s.Mem.MCOf(v.Addr()); got != mc {
			t.Errorf("NewTVarAt(%d) landed on controller %d", mc, got)
		}
		arr := NewTArrayAt(s, Uint64Codec(), 4, mc, 1)
		if got := s.Mem.MCOf(arr.Addr(3)); got != mc {
			t.Errorf("NewTArrayAt(%d) landed on controller %d", mc, got)
		}
	}
	for _, coreID := range s.AppCores() {
		near := NewTVarNear(s, Uint64Codec(), coreID, 0)
		if got, want := s.Mem.MCOf(near.Addr()), s.Mem.NearestMC(coreID); got != want {
			t.Errorf("NewTVarNear(core %d) landed on controller %d, want %d", coreID, got, want)
		}
	}
}

// TestTArrayLayout: elements are contiguous, independently addressed, and
// bounds-checked.
func TestTArrayLayout(t *testing.T) {
	s := testSystem(t, nil)
	arr := NewTArray(s, testRecordCodec, 5, testRecord{ID: 1})
	for i := 0; i < arr.Len(); i++ {
		if got, want := arr.Addr(i), arr.Addr(0)+mem.Addr(i*testRecordCodec.Words()); got != want {
			t.Fatalf("element %d at %#x, want %#x", i, uint64(got), uint64(want))
		}
		if arr.GetRaw(i).ID != 1 {
			t.Fatalf("element %d not initialized", i)
		}
	}
	arr.SetRaw(2, testRecord{ID: 99})
	if arr.GetRaw(2).ID != 99 || arr.GetRaw(1).ID != 1 || arr.GetRaw(3).ID != 1 {
		t.Fatal("SetRaw bled into a neighboring element")
	}
	for _, bad := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d did not panic", bad)
				}
			}()
			arr.Addr(bad)
		}()
	}
}

// TestTVarRawOneWordAllocationFree: raw access through the built-in one-word
// codecs allocates nothing (setup and verification loops over whole arrays
// use it); a FuncCodec still round-trips.
func TestTVarRawOneWordAllocationFree(t *testing.T) {
	s := testSystem(t, nil)
	u := NewTArray(s, Uint64Codec(), 4, 3)
	i := NewTVar(s, Int64Codec(), -1)
	b := NewTVar(s, BoolCodec(), true)
	a := NewTVar(s, AddrCodec(), mem.Addr(5))
	allocs := testing.AllocsPerRun(20, func() {
		u.SetRaw(2, u.GetRaw(1)+1)
		i.SetRaw(i.GetRaw() - 1)
		b.SetRaw(!b.GetRaw())
		a.SetRaw(a.GetRaw() + 1)
	})
	if allocs != 0 {
		t.Errorf("one-word raw Get/Set allocates %v objects", allocs)
	}
	if u.GetRaw(2) != 4 || i.GetRaw() != -22 || b.GetRaw() || a.GetRaw() != 26 {
		t.Errorf("raw values after 21 rounds: %d %d %v %d", u.GetRaw(2), i.GetRaw(), b.GetRaw(), a.GetRaw())
	}
	f := FuncCodec(1, func(v uint64, d []uint64) { d[0] = v }, func(s []uint64) uint64 { return s[0] })
	v := NewTVar(s, f, 11)
	if v.SetRaw(v.GetRaw() + 1); v.GetRaw() != 12 {
		t.Errorf("FuncCodec TVar = %d, want 12", v.GetRaw())
	}
}

// TestTVarDirectAccess covers the charged non-transactional accessors used
// by the bare-sequential baselines.
func TestTVarDirectAccess(t *testing.T) {
	s := testSystem(t, func(cfg *Config) { cfg.ServiceCores = -1 })
	v := NewTVar(s, testRecordCodec, testRecord{ID: 5})
	want := testRecord{ID: 6, Score: 2, Live: true}
	s.SpawnRaw(func(p Port, coreID int) {
		if coreID != s.AppCores()[0] {
			return
		}
		got := v.GetDirect(p, coreID)
		if got.ID != 5 {
			t.Errorf("GetDirect = %+v", got)
		}
		v.SetDirect(p, coreID, want)
	})
	s.RunToCompletion()
	if got := v.GetRaw(); got != want {
		t.Fatalf("SetDirect wrote %+v, want %+v", got, want)
	}
	if st := s.Mem.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatal("direct accessors did not charge memory traffic")
	}
}
