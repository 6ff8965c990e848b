package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/wire"
)

// idPort is the resolver stand-in for round-trip tests: a Port that only
// answers ID, the one property the wire encoding preserves. Two idPorts
// with the same ID compare DeepEqual, so decoded Reply fields match their
// originals structurally.
type idPort struct{ id int }

func (p idPort) ID() int                                { return p.id }
func (p idPort) Now() port.Time                         { panic("idPort: Now") }
func (p idPort) Rand() *port.Rand                       { panic("idPort: Rand") }
func (p idPort) Advance(time.Duration)                  { panic("idPort: Advance") }
func (p idPort) Pause(time.Duration)                    { panic("idPort: Pause") }
func (p idPort) Send(port.Port, any, time.Duration)     { panic("idPort: Send") }
func (p idPort) Recv() port.Msg                         { panic("idPort: Recv") }
func (p idPort) TryRecv() (port.Msg, bool)              { panic("idPort: TryRecv") }
func (p idPort) RecvMatch(func(port.Msg) bool) port.Msg { panic("idPort: RecvMatch") }

func testResolver(id int) port.Port { return idPort{id: id} }

func randAddrs(r *rand.Rand, maxN int) []mem.Addr {
	n := r.Intn(maxN + 1)
	if n == 0 {
		return nil
	}
	as := make([]mem.Addr, n)
	for i := range as {
		as[i] = mem.Addr(r.Uint64())
	}
	return as
}

func randVers(r *rand.Rand, maxN int) []uint64 {
	n := r.Intn(maxN + 1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uint64()
	}
	return vs
}

func randMeta(r *rand.Rand) cm.Meta {
	return cm.Meta{
		Core:   r.Intn(1 << 20),
		TxID:   r.Uint64(),
		Prio:   int64(r.Uint64()), // exercises negative priorities
		Offset: port.Time(r.Int63()),
	}
}

func randReply(r *rand.Rand) port.Port {
	if r.Intn(4) == 0 {
		return nil
	}
	return idPort{id: r.Intn(1 << 16)}
}

// messageGens builds one random instance per protocol message type, and per
// reqLock mode and relLocks flavour. Every registered wire type must appear
// here; the completeness check in TestWireRoundTripAllMessages enforces
// that.
func messageGens() []func(r *rand.Rand) any {
	reqLockGen := func(mode lockMode, maxAddrs int, carry bool) func(r *rand.Rand) any {
		return func(r *rand.Rand) any {
			req := &reqLock{
				ReqID: r.Uint64(), Epoch: r.Uint64(), Mode: mode, Addrs: randAddrs(r, maxAddrs),
				Meta: randMeta(r), Reply: randReply(r), ReplyTo: r.Intn(1 << 20),
				Ended: attemptRef{Core: r.Intn(1<<20) - 1, TxID: r.Uint64()}, // -1: none
			}
			if carry {
				req.Rel = &relLocks{
					ReadAddrs: randAddrs(r, 8), WriteAddrs: randAddrs(r, 8),
					Core: req.Meta.Core, TxID: r.Uint64(),
				}
			}
			return req
		}
	}
	return []func(r *rand.Rand) any{
		reqLockGen(lockRead, 1, false),
		reqLockGen(lockRead, 4, true),
		reqLockGen(lockWrite, 12, false),
		reqLockGen(lockWrite, 12, true),
		reqLockGen(lockExclusive, 0, false),
		func(r *rand.Rand) any {
			owner := r.Intn(64) - 1 // exercises the -1 "no single owner" sentinel
			return &respLock{
				ReqID: r.Uint64(), OK: r.Intn(2) == 0, Stale: r.Intn(2) == 0,
				Kind: cm.Kind(r.Intn(3)), Vers: randVers(r, 8),
				NackEpoch: r.Uint64(), NackOwner: owner,
			}
		},
		func(r *rand.Rand) any {
			return &relLocks{
				ReadAddrs: randAddrs(r, 8), WriteAddrs: randAddrs(r, 8),
				Core: r.Intn(1 << 20), TxID: r.Uint64(),
			}
		},
		func(r *rand.Rand) any {
			return &relLocks{Core: r.Intn(1 << 20), TxID: r.Uint64(), Exclusive: true}
		},
		func(r *rand.Rand) any { return barrierMsg{Epoch: r.Uint64()} },
	}
}

func wireRoundTrip(t *testing.T, v any) any {
	t.Helper()
	e := wire.NewEnc(nil)
	if err := wire.EncodePayload(e, v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	d := wire.NewDec(e.Bytes(), testResolver)
	got, err := wire.DecodePayload(d)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if d.Len() != 0 {
		t.Fatalf("decode %T left %d trailing bytes", v, d.Len())
	}
	if !reflect.DeepEqual(nilEmpty(got), nilEmpty(v)) {
		t.Fatalf("round trip %T:\n got %#v\nwant %#v", v, got, v)
	}
	return got
}

// nilEmpty returns v with every empty slice field set to nil (in place, for
// the pointer messages; through a carried release): decoders fill pooled structs, whose empty lists are len 0 over
// retained storage, so a round trip preserves contents, not nil-ness.
func nilEmpty(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer {
		return v
	}
	for i, st := 0, rv.Elem(); i < st.NumField(); i++ {
		if f := st.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.SetZero()
		} else if rel, ok := f.Interface().(*relLocks); ok && rel != nil {
			nilEmpty(rel)
		}
	}
	return v
}

// TestWireRoundTripAllMessages property-tests encode→decode identity over
// randomized instances of every DTM protocol message, and fails if any
// registered wire type lacks a generator — so adding a message type without
// codec coverage breaks the build here.
func TestWireRoundTripAllMessages(t *testing.T) {
	r := rand.New(rand.NewSource(0x7432635f6e6574))
	gens := messageGens()
	covered := map[reflect.Type]bool{}
	for i := 0; i < 400; i++ {
		for _, gen := range gens {
			v := gen(r)
			wireRoundTrip(t, v)
			covered[reflect.TypeOf(v)] = true
		}
	}
	for _, typ := range wire.RegisteredTypes() {
		if !covered[typ] {
			t.Errorf("registered wire type %v has no round-trip generator in this test", typ)
		}
	}
}

// TestWireDecodeRejectsCorruptInput pins the failure mode of bad frames:
// errors, never panics or silent truncation.
func TestWireDecodeRejectsCorruptInput(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	v := &reqLock{
		ReqID: 7, Epoch: 3, Mode: lockWrite, Addrs: randAddrs(r, 6), Meta: randMeta(r),
		Reply: idPort{id: 9}, ReplyTo: 4,
	}
	e := wire.NewEnc(nil)
	if err := wire.EncodePayload(e, v); err != nil {
		t.Fatal(err)
	}
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := wire.NewDec(full[:cut], testResolver)
		if _, err := wire.DecodePayload(d); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
	// Unknown kind byte.
	d := wire.NewDec([]byte{0xee, 1, 2, 3}, testResolver)
	if _, err := wire.DecodePayload(d); err == nil {
		t.Fatal("unknown payload kind decoded without error")
	}
	// Retired kinds, each in its old encoding: 1 reqReadLock, 5 earlyRelease,
	// 7 reqExclusive, 8 respExclusive, 9 relExclusive, 10 Batch.
	for _, frame := range retiredKindFrames {
		d = wire.NewDec(frame, testResolver)
		if _, err := wire.DecodePayload(d); err == nil {
			t.Fatalf("retired payload kind %d decoded without error", frame[0])
		}
	}
	// A reqLock mode past lockExclusive.
	bad := slices.Clone(full)
	bad[1+8+8] = uint8(lockExclusive) + 1
	if _, err := wire.DecodePayload(wire.NewDec(bad, testResolver)); err == nil {
		t.Fatal("reqLock with an unknown mode decoded without error")
	}
	// A token request carrying a release, otherwise well formed: the release
	// goes between the request's fields and its Ended attempt (none).
	e = wire.NewEnc(nil)
	if err := wire.EncodePayload(e, &reqLock{Mode: lockExclusive, Ended: attemptRef{Core: -1}}); err != nil {
		t.Fatal(err)
	}
	enc := e.Bytes()
	bad = slices.Concat(enc[:len(enc)-1-16], []byte{1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, enc[len(enc)-16:])
	if _, err := wire.DecodePayload(wire.NewDec(bad, testResolver)); err == nil {
		t.Fatal("token request carrying a release decoded without error")
	}
	// Core IDs the lock table cannot hold, in a request's Meta and in a
	// release.
	for _, frame := range badCoreFrames() {
		if v, err := wire.DecodePayload(wire.NewDec(frame, testResolver)); err == nil {
			t.Fatalf("core ID out of range decoded to %#v", v)
		}
	}
	// NACK hints and ended attempts' cores that are neither -1 nor a core
	// or node index.
	for _, frame := range badHintFrames() {
		if v, err := wire.DecodePayload(wire.NewDec(frame, testResolver)); err == nil {
			t.Fatalf("NACK hint or ended core out of range decoded to %#v", v)
		}
	}
	// Kind 0 is reserved so zeroed buffers fail loudly.
	d = wire.NewDec(make([]byte, 16), testResolver)
	if _, err := wire.DecodePayload(d); err == nil {
		t.Fatal("zeroed buffer decoded without error")
	}
}

// badCoreFrames encodes a reqLock and a relLocks whose core IDs are -1 and
// MaxInt32+1: both would alias another core in the lock table's int32.
func badCoreFrames() [][]byte {
	var frames [][]byte
	for _, core := range []int{-1, math.MaxInt32 + 1} {
		for _, v := range []any{
			&reqLock{Mode: lockRead, Addrs: []mem.Addr{1}, Meta: cm.Meta{Core: core}},
			&relLocks{ReadAddrs: []mem.Addr{1}, Core: core},
		} {
			e := wire.NewEnc(nil)
			if err := wire.EncodePayload(e, v); err != nil {
				panic(err)
			}
			frames = append(frames, e.Bytes())
		}
	}
	return frames
}

// badHintFrames encodes a conflict NACK and a stale NACK whose NackOwner is
// -2 or MaxInt32+1, and a read and a write request whose Ended core is:
// neither "none" (-1) nor a core or node index.
func badHintFrames() [][]byte {
	var frames [][]byte
	for _, core := range []int{-2, math.MaxInt32 + 1} {
		for _, v := range []any{
			&respLock{Kind: cm.WAR, NackOwner: core},
			&respLock{Stale: true, NackOwner: core},
			&reqLock{Mode: lockRead, Addrs: []mem.Addr{1}, Ended: attemptRef{Core: core, TxID: 5}},
			&reqLock{Mode: lockWrite, Addrs: []mem.Addr{1, 2}, Ended: attemptRef{Core: core, TxID: 5}},
		} {
			e := wire.NewEnc(nil)
			if err := wire.EncodePayload(e, v); err != nil {
				panic(err)
			}
			frames = append(frames, e.Bytes())
		}
	}
	return frames
}

// retiredKindFrames holds one frame per retired payload kind, each in the
// encoding it had before it was retired.
var retiredKindFrames = [][]byte{
	append([]byte{1}, make([]byte, 8+8+8+32+4+8)...),                // reqReadLock
	{5, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, // earlyRelease
	append([]byte{7}, make([]byte, 8+8+4)...),                       // reqExclusive
	{8},                                     // respExclusive
	append([]byte{9}, make([]byte, 8+8)...), // relExclusive
	append([]byte{10, 1, 0, 0, 0, 6}, make([]byte, 8)...), // Batch of one barrierMsg
}

// TestWireEncodingStable pins exact bytes for a read-mode reqLock with and
// without a carried release, an exclusive-mode one, a write-mode resend that
// names an ended attempt and a RAW conflict NACK that names its winner: the
// encoding is a protocol constant (docs/WIRE.md), and accidental layout
// drift must show up as a test failure, not a cross-version hang.
func TestWireEncodingStable(t *testing.T) {
	meta := []byte{
		3, 0, 0, 0, 0, 0, 0, 0, // Meta.Core
		9, 0, 0, 0, 0, 0, 0, 0, // Meta.TxID
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Meta.Prio = -1
		5, 0, 0, 0, 0, 0, 0, 0, // Meta.Offset
		17, 0, 0, 0, // Reply port ID
		3, 0, 0, 0, 0, 0, 0, 0, // ReplyTo
	}
	noEnded := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Ended.Core = -1: none
		0, 0, 0, 0, 0, 0, 0, 0, // Ended.TxID
	}
	for _, c := range []struct {
		v    any
		want []byte
	}{
		{&reqLock{ReqID: 0x0102030405060708, Epoch: 2, Mode: lockRead, Addrs: []mem.Addr{0x0a0b}}, slices.Concat([]byte{
			2,                      // kind: reqLock
			8, 7, 6, 5, 4, 3, 2, 1, // ReqID
			2, 0, 0, 0, 0, 0, 0, 0, // Epoch
			0,          // Mode: read
			1, 0, 0, 0, // len(Addrs)
			0x0b, 0x0a, 0, 0, 0, 0, 0, 0, // Addrs[0]
		}, meta, []byte{
			0, // no carried release
		}, noEnded)},
		{&reqLock{ReqID: 5, Mode: lockRead, Addrs: []mem.Addr{0x0a0b},
			Rel: &relLocks{WriteAddrs: []mem.Addr{0x0c}, Core: 3, TxID: 8}}, slices.Concat([]byte{
			2,                      // kind: reqLock
			5, 0, 0, 0, 0, 0, 0, 0, // ReqID
			0, 0, 0, 0, 0, 0, 0, 0, // Epoch
			0,          // Mode: read
			1, 0, 0, 0, // len(Addrs)
			0x0b, 0x0a, 0, 0, 0, 0, 0, 0, // Addrs[0]
		}, meta, []byte{
			1,                      // a carried release
			8, 0, 0, 0, 0, 0, 0, 0, // Rel.TxID
			0, 0, 0, 0, // len(Rel.ReadAddrs)
			1, 0, 0, 0, // len(Rel.WriteAddrs)
			0x0c, 0, 0, 0, 0, 0, 0, 0, // Rel.WriteAddrs[0]
		}, noEnded)},
		{&reqLock{ReqID: 4, Mode: lockExclusive}, slices.Concat([]byte{
			2,                      // kind: reqLock
			4, 0, 0, 0, 0, 0, 0, 0, // ReqID
			0, 0, 0, 0, 0, 0, 0, 0, // Epoch
			2,          // Mode: exclusive
			0, 0, 0, 0, // len(Addrs)
		}, meta, []byte{
			0, // no carried release
		}, noEnded)},
		{&reqLock{ReqID: 7, Mode: lockWrite, Addrs: []mem.Addr{0x0a0b}, Ended: attemptRef{Core: 2, TxID: 41}}, slices.Concat([]byte{
			2,                      // kind: reqLock
			7, 0, 0, 0, 0, 0, 0, 0, // ReqID
			0, 0, 0, 0, 0, 0, 0, 0, // Epoch
			1,          // Mode: write
			1, 0, 0, 0, // len(Addrs)
			0x0b, 0x0a, 0, 0, 0, 0, 0, 0, // Addrs[0]
		}, meta, []byte{
			0,                      // no carried release
			2, 0, 0, 0, 0, 0, 0, 0, // Ended.Core: the ended winner's core
			41, 0, 0, 0, 0, 0, 0, 0, // Ended.TxID: its attempt
		})},
		{&respLock{ReqID: 6, Kind: cm.RAW, NackEpoch: 41, NackOwner: 2}, []byte{
			3,                      // kind: respLock
			6, 0, 0, 0, 0, 0, 0, 0, // ReqID
			0,          // OK
			0,          // Stale
			0,          // Kind: RAW
			0, 0, 0, 0, // len(Vers)
			41, 0, 0, 0, 0, 0, 0, 0, // NackEpoch: the winner's attempt
			2, 0, 0, 0, 0, 0, 0, 0, // NackOwner: the winner's core
		}},
	} {
		if r, ok := c.v.(*reqLock); ok {
			r.Meta = cm.Meta{Core: 3, TxID: 9, Prio: -1, Offset: 5}
			r.Reply, r.ReplyTo = idPort{id: 17}, 3
			if r.Ended == (attemptRef{}) {
				r.Ended.Core = -1 // as getLockReq leaves it
			}
		}
		e := wire.NewEnc(nil)
		if err := wire.EncodePayload(e, c.v); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Bytes(), c.want) {
			t.Fatalf("%+v: encoding drifted:\n got %v\nwant %v", c.v, e.Bytes(), c.want)
		}
	}
}

// decodeAllocated decodes one payload from b and returns the heap bytes the
// decode allocated (everything the process allocated meanwhile, strictly).
func decodeAllocated(b []byte) (v any, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err = wire.DecodePayload(wire.NewDec(b, testResolver))
	runtime.ReadMemStats(&after)
	return v, after.TotalAlloc - before.TotalAlloc, err
}

// TestWireDecodeDistrustsCounts: a count field is a claim by the peer, not
// a size to allocate. A five-byte frame may cost no more than the error
// that rejects it.
func TestWireDecodeDistrustsCounts(t *testing.T) {
	for name, frame := range map[string][]byte{
		"2^32-1 lock addresses": {wkRelLocks, 0xff, 0xff, 0xff, 0xff},
	} {
		v, alloc, err := decodeAllocated(frame)
		if err == nil {
			t.Errorf("%s: decoded to %#v without error", name, v)
		}
		if alloc > 4096 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(frame), alloc)
		}
	}
}

// FuzzDecodePayload feeds arbitrary bytes to the decoder every MSG frame off
// a socket goes through. Properties: it never panics, and it never allocates
// more than a small multiple of what it was sent.
func FuzzDecodePayload(f *testing.F) {
	for _, typ := range wire.RegisteredTypes() {
		zero := reflect.Zero(typ).Interface()
		if typ.Kind() == reflect.Pointer {
			zero = reflect.New(typ.Elem()).Interface()
		}
		e := wire.NewEnc(nil)
		if err := wire.EncodePayload(e, zero); err != nil {
			f.Fatal(err)
		}
		f.Add(e.Bytes())
	}
	// A write batch carrying a release.
	e := wire.NewEnc(nil)
	if err := wire.EncodePayload(e, &reqLock{Mode: lockWrite, Addrs: []mem.Addr{1, 2},
		Rel: &relLocks{ReadAddrs: []mem.Addr{3}, WriteAddrs: []mem.Addr{1}, TxID: 7}}); err != nil {
		f.Fatal(err)
	}
	f.Add(e.Bytes())
	// A read request sent again past an ended attempt.
	e = wire.NewEnc(nil)
	if err := wire.EncodePayload(e, &reqLock{Mode: lockRead, Addrs: []mem.Addr{4}, Ended: attemptRef{Core: 2, TxID: 9}}); err != nil {
		f.Fatal(err)
	}
	f.Add(e.Bytes())
	// The hostile Batch frames of wire version 7, a count of 2^32-1 and a
	// nested envelope, now stopped at their retired kind byte.
	f.Add([]byte{10, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{10, 1, 0, 0, 0, 10, 0, 0, 0, 0})
	for _, frame := range retiredKindFrames {
		f.Add(frame) // rejected
	}
	for _, frame := range badCoreFrames() {
		f.Add(frame) // rejected
	}
	for _, frame := range badHintFrames() {
		f.Add(frame) // rejected
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, alloc, err := decodeAllocated(b)
		if err != nil && v != nil {
			t.Errorf("decode failed (%v) but returned %#v", err, v)
		}
		if len(b) > 0 && slices.Contains([]byte{1, 5, 7, 8, 9, 10}, b[0]) && err == nil {
			t.Errorf("retired payload kind %d decoded to %#v", b[0], v)
		}
		if r, ok := v.(*respLock); ok && (r.NackOwner < -1 || r.NackOwner > math.MaxInt32) {
			t.Errorf("NACK hint %d decoded", r.NackOwner)
		}
		if r, ok := v.(*reqLock); ok && (r.Ended.Core < -1 || r.Ended.Core > math.MaxInt32) {
			t.Errorf("ended attempt's core %d decoded", r.Ended.Core)
		}
		if limit := uint64(64*len(b) + 16<<10); alloc > limit {
			t.Errorf("decoding %d bytes allocated %d (limit %d)", len(b), alloc, limit)
		}
	})
}
