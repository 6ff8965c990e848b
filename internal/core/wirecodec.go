package core

import (
	"math"
	"reflect"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/wire"
)

// Wire codec registration for the cross-process net backend. Exactly the
// closed set of DTM protocol messages (messages.go) ever crosses a port
// boundary — applications go through the typed transaction API, never
// Port.Send — so these four codecs are the complete wire vocabulary. Kind
// bytes are stable protocol constants: never renumber one or reuse a retired
// one, add new ones at the end and bump wire.Version.
//
// Encodings are little-endian and fixed-width (see internal/wire and
// docs/WIRE.md). Ints are encoded as two's-complement u64 so negative
// sentinels (respLock.NackOwner = -1) survive; port references travel as
// spawn-order port IDs and are re-resolved against the receiving process's
// replicated port table.
const (
	// 0 is reserved: it catches zeroed buffers.
	_ uint8 = iota + 1 // 1 retired: reqReadLock, now reqLock's read mode
	wkReqLock
	wkRespLock
	wkRelLocks
	_ // 5 retired: earlyRelease, now relLocks with only ReadAddrs set
	wkBarrier
	_ // 7 retired: reqExclusive, now reqLock's exclusive mode
	_ // 8 retired: respExclusive, now a respLock grant
	_ // 9 retired: relExclusive, now relLocks with Exclusive set
	_ // 10 retired: Batch, the coalescing envelope; every payload is its own message
)

func encMeta(e *wire.Enc, m cm.Meta) {
	e.Int(m.Core)
	e.U64(m.TxID)
	e.I64(m.Prio)
	e.Time(m.Offset)
}

func decMeta(d *wire.Dec) cm.Meta {
	return cm.Meta{Core: decCore(d), TxID: d.U64(), Prio: d.I64(), Offset: d.Time()}
}

// decCore decodes the core ID of a lock holder. The lock table keeps it as
// an int32, so a value outside [0, MaxInt32] would alias another core's
// locks: it fails the decode.
func decCore(d *wire.Dec) int {
	c := d.Int()
	if c < 0 || c > math.MaxInt32 {
		d.Failf("wire: core ID %d out of range", c)
	}
	return c
}

// decHint decodes what, a core ID or a DTM node index, or -1 for none: a
// NACK's NackOwner, a request's Ended.Core. Anything else would pass for a
// value it is not.
func decHint(d *wire.Dec, what string) int {
	c := d.Int()
	if c < -1 || c > math.MaxInt32 {
		d.Failf("wire: %s %d out of range", what, c)
	}
	return c
}

func encAddrs(e *wire.Enc, as []mem.Addr) {
	e.U32(uint32(len(as)))
	for _, a := range as {
		e.U64(uint64(a))
	}
}

// decAddrs mirrors Dec.U64s: it decodes into the storage of into, growing it
// by no more than the count, which the bytes received bound.
func decAddrs(d *wire.Dec, into []mem.Addr) []mem.Addr {
	into = into[:0]
	for n := d.Count(8); n > 0; n-- {
		into = append(into, mem.Addr(d.U64()))
	}
	return into
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

func init() {
	wire.Register(wire.Codec{
		Kind: wkReqLock, Type: typeOf[*reqLock](),
		Encode: func(e *wire.Enc, v any) {
			r := v.(*reqLock)
			e.U64(r.ReqID)
			e.U64(r.Epoch)
			e.U8(uint8(r.Mode))
			encAddrs(e, r.Addrs)
			encMeta(e, r.Meta)
			e.Port(r.Reply)
			e.Int(r.ReplyTo)
			// The carried release: its attempt and keys. Its core is the
			// requester's, Meta.Core.
			e.Bool(r.Rel != nil)
			if r.Rel != nil {
				e.U64(r.Rel.TxID)
				encAddrs(e, r.Rel.ReadAddrs)
				encAddrs(e, r.Rel.WriteAddrs)
			}
			// The attempt a resend names as ended; core -1: none.
			e.Int(r.Ended.Core)
			e.U64(r.Ended.TxID)
		},
		Decode: func(d *wire.Dec) any {
			r := getLockReq()
			r.ReqID, r.Epoch, r.Mode = d.U64(), d.U64(), lockMode(d.U8())
			if r.Mode > lockExclusive {
				d.Failf("wire: unknown lock mode %d", r.Mode)
			}
			r.Addrs = decAddrs(d, r.Addrs)
			r.Meta, r.Reply, r.ReplyTo = decMeta(d), d.Port(), d.Int()
			if d.Bool() {
				if r.Mode == lockExclusive {
					d.Failf("wire: token request carrying a release")
				}
				rel := getRelLocks()
				rel.Core, rel.TxID = r.Meta.Core, d.U64()
				rel.ReadAddrs, rel.WriteAddrs = decAddrs(d, rel.ReadAddrs), decAddrs(d, rel.WriteAddrs)
				r.Rel = rel
			}
			r.Ended = attemptRef{Core: decHint(d, "ended attempt's core"), TxID: d.U64()}
			return r
		},
		Release: func(v any) { putLockReq(v.(*reqLock)) },
	})
	wire.Register(wire.Codec{
		Kind: wkRespLock, Type: typeOf[*respLock](),
		Encode: func(e *wire.Enc, v any) {
			r := v.(*respLock)
			e.U64(r.ReqID)
			e.Bool(r.OK)
			e.Bool(r.Stale)
			e.U8(uint8(r.Kind))
			e.U64s(r.Vers)
			e.U64(r.NackEpoch)
			e.Int(r.NackOwner)
		},
		Decode: func(d *wire.Dec) any {
			r := getRespLock()
			r.ReqID, r.OK, r.Stale, r.Kind = d.U64(), d.Bool(), d.Bool(), cm.Kind(d.U8())
			r.Vers, r.NackEpoch, r.NackOwner = d.U64s(r.Vers), d.U64(), decHint(d, "NACK hint")
			return r
		},
		Release: func(v any) { putRespLock(v.(*respLock)) },
	})
	wire.Register(wire.Codec{
		Kind: wkRelLocks, Type: typeOf[*relLocks](),
		Encode: func(e *wire.Enc, v any) {
			r := v.(*relLocks)
			encAddrs(e, r.ReadAddrs)
			encAddrs(e, r.WriteAddrs)
			e.Int(r.Core)
			e.U64(r.TxID)
			e.Bool(r.Exclusive)
		},
		Decode: func(d *wire.Dec) any {
			r := getRelLocks()
			r.ReadAddrs, r.WriteAddrs = decAddrs(d, r.ReadAddrs), decAddrs(d, r.WriteAddrs)
			r.Core, r.TxID, r.Exclusive = decCore(d), d.U64(), d.Bool()
			return r
		},
		Release: func(v any) { putRelLocks(v.(*relLocks)) },
	})
	wire.Register(wire.Codec{
		// barrierMsg is the one value-type payload (messages.go sends it
		// by value), so its codec round-trips a bare struct, not a pointer.
		Kind: wkBarrier, Type: typeOf[barrierMsg](),
		Encode: func(e *wire.Enc, v any) {
			e.U64(v.(barrierMsg).Epoch)
		},
		Decode: func(d *wire.Dec) any {
			return barrierMsg{Epoch: d.U64()}
		},
	})
}
