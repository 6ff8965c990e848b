// Package wire is the deterministic, versioned binary codec used by the
// cross-process net backend. It has two layers:
//
//   - Framing: every unit on a connection is a length-prefixed frame
//     [u32 length][u8 frame kind][body...], little-endian, where length
//     counts the kind byte plus the body. Frame kinds (handshake, port
//     message, state RPC, control) belong to the transport (internal/net);
//     this package only moves opaque (kind, body) pairs.
//
//   - Payload codec: a registry mapping each protocol message type to a
//     stable one-byte payload kind and a hand-written encoder/decoder pair.
//     internal/core registers its nine DTM protocol messages plus the Batch
//     envelope at init time; nothing else ever crosses the wire, so the
//     registry is closed and the encoding is exhaustively property-tested.
//
// All integers are little-endian and fixed-width — no varints, no
// reflection, no per-build layout dependence — so two processes built from
// the same source always agree byte-for-byte. Version is bumped whenever
// any registered encoding or the frame layout changes; peers exchange it
// during the connection handshake and refuse mismatches.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"

	"repro/internal/port"
	"repro/internal/sim"
)

// Version identifies the wire format: frame layout, handshake shape, and
// every registered payload encoding. Peers with different versions refuse
// to talk during the handshake rather than misparse each other mid-run.
const Version uint16 = 1

// MaxFrame bounds a frame body so a corrupt or hostile length prefix cannot
// make a reader allocate unboundedly. The largest legitimate frames are
// coalesced Batch envelopes and state-RPC read-batch responses, both far
// below this.
const MaxFrame = 16 << 20

// PortResolver maps a spawn-order port ID back to the local process's
// port.Port replica of that actor. Decoders use it to rebuild Reply fields;
// the net backend supplies its engine's port table.
type PortResolver func(id int) port.Port

// nilPort is the on-wire encoding of a nil port.Port reference.
const nilPort = math.MaxUint32

// Enc is an append-only little-endian encoder.
type Enc struct {
	b []byte
}

// NewEnc returns an encoder reusing buf's storage (pass nil for a fresh one).
func NewEnc(buf []byte) *Enc { return &Enc{b: buf[:0]} }

// encPool recycles encoders for the per-message send paths. An encoder's
// buffer grows to the largest frame it ever carried and stays that size.
var encPool = sync.Pool{New: func() any { return &Enc{} }}

// GetEnc returns a pooled encoder, empty but with retained capacity.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.b = e.b[:0]
	return e
}

// PutEnc recycles an encoder. The caller must be done with every slice
// obtained from Bytes — the storage is reused by the next GetEnc.
func PutEnc(e *Enc) { encPool.Put(e) }

// Bytes returns the encoded buffer. It aliases the encoder's storage.
func (e *Enc) Bytes() []byte { return e.b }

func (e *Enc) U8(v uint8)      { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)    { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)    { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)    { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)     { e.U64(uint64(v)) }
func (e *Enc) Int(v int)       { e.I64(int64(v)) }
func (e *Enc) Time(t sim.Time) { e.I64(int64(t)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64s encodes a slice as a u32 count followed by the elements.
func (e *Enc) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Port encodes a port reference as its spawn-order ID (nil → sentinel).
func (e *Enc) Port(p port.Port) {
	if p == nil {
		e.U32(nilPort)
		return
	}
	e.U32(uint32(p.ID()))
}

// Bytes32 encodes a byte slice as a u32 count followed by the raw bytes.
func (e *Enc) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// Dec is a little-endian decoder over a fixed buffer. The first malformed
// read latches an error; subsequent reads return zero values, so decoders
// can run straight-line and check Err once at the end.
type Dec struct {
	b   []byte
	off int
	// Resolve rebuilds port.Port references from spawn-order IDs. Required
	// only when decoding payloads that carry port fields.
	Resolve PortResolver
	err     error
}

// NewDec returns a decoder over b.
func NewDec(b []byte, r PortResolver) *Dec { return &Dec{b: b, Resolve: r} }

// Err reports the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len reports the number of unread bytes.
func (d *Dec) Len() int { return len(d.b) - d.off }

// Failf latches a decode error (the first one wins). Registered decoders
// use it to reject input that is well-framed but not a valid message.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Peek returns the next unread byte without consuming it; zero when none is
// left (the read that follows latches the truncation).
func (d *Dec) Peek() uint8 {
	if d.err != nil || d.off >= len(d.b) {
		return 0
	}
	return d.b[d.off]
}

// Count reads a u32 element count written ahead of a sequence whose every
// element takes at least elemBytes on the wire, and fails unless that many
// can still fit in the unread payload. A decoder may therefore allocate for
// the count it gets back: a peer-supplied count can never ask for more
// memory than a small multiple of the bytes the peer actually sent.
func (d *Dec) Count(elemBytes int) int {
	n := int(d.U32())
	if d.err == nil && n > d.Len()/elemBytes {
		d.Failf("wire: count %d exceeds remaining payload (%d bytes)", n, d.Len())
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.Failf("wire: truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *Dec) I64() int64     { return int64(d.U64()) }
func (d *Dec) Int() int       { return int(d.I64()) }
func (d *Dec) Time() sim.Time { return sim.Time(d.I64()) }
func (d *Dec) Bool() bool     { return d.U8() != 0 }

// U64s decodes a slice written by Enc.U64s. A zero count yields nil so
// round-trips preserve the in-memory convention of nil empty slices.
func (d *Dec) U64s() []uint64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// Port decodes a port reference via the resolver (sentinel → nil).
func (d *Dec) Port() port.Port {
	id := d.U32()
	if d.err != nil || id == nilPort {
		return nil
	}
	if d.Resolve == nil {
		d.Failf("wire: payload carries port ID %d but decoder has no resolver", id)
		return nil
	}
	p := d.Resolve(int(id))
	if p == nil {
		d.Failf("wire: unknown port ID %d", id)
	}
	return p
}

// Bytes32 decodes a byte slice written by Enc.Bytes32. The result aliases
// the decoder's buffer.
func (d *Dec) Bytes32() []byte {
	return d.take(d.Count(1))
}

// Codec describes one registered payload type: a stable kind byte, the
// concrete Go type it encodes, and the encoder/decoder pair. Decode must
// return the same concrete type as Type (pointer types round-trip as new
// pointers).
type Codec struct {
	Kind   uint8
	Type   reflect.Type
	Encode func(e *Enc, v any)
	Decode func(d *Dec) any
}

var (
	byKind [256]*Codec
	byType = map[reflect.Type]*Codec{}
)

// Register adds a payload codec. Kinds and types must be unique; collisions
// are programmer errors and panic at init time.
func Register(c Codec) {
	if byKind[c.Kind] != nil {
		panic(fmt.Sprintf("wire: payload kind %d registered twice (%v and %v)", c.Kind, byKind[c.Kind].Type, c.Type))
	}
	if _, dup := byType[c.Type]; dup {
		panic(fmt.Sprintf("wire: payload type %v registered twice", c.Type))
	}
	cc := c
	byKind[c.Kind] = &cc
	byType[c.Type] = &cc
}

// RegisteredTypes lists every registered payload type (test support).
func RegisteredTypes() []reflect.Type {
	ts := make([]reflect.Type, 0, len(byType))
	for _, c := range byKind {
		if c != nil {
			ts = append(ts, c.Type)
		}
	}
	return ts
}

// EncodePayload appends v's kind byte and body to e. Unregistered types are
// protocol bugs: only the closed set of DTM messages may cross the wire.
func EncodePayload(e *Enc, v any) error {
	c, ok := byType[reflect.TypeOf(v)]
	if !ok {
		return fmt.Errorf("wire: unregistered payload type %T", v)
	}
	e.U8(c.Kind)
	c.Encode(e, v)
	return nil
}

// DecodePayload reads one kind byte and body from d.
func DecodePayload(d *Dec) (any, error) {
	k := d.U8()
	if d.err != nil {
		return nil, d.err
	}
	c := byKind[k]
	if c == nil {
		// Latched, not just returned: an envelope decoder nesting this call
		// reports failure through d.
		d.Failf("wire: unknown payload kind %d", k)
		return nil, d.err
	}
	v := c.Decode(d)
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// framePool recycles the scratch buffers WriteFrame uses to emit header and
// body as a single Write call (one syscall, no partial-frame interleaving).
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one [u32 length][u8 kind][body] frame.
func WriteFrame(w io.Writer, kind uint8, body []byte) error {
	if len(body)+1 > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds MaxFrame", len(body))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = kind
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], hdr[:]...)
	buf = append(buf, body...)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// readChunk is the most ReadFrame allocates on the strength of a length
// prefix alone. Protocol frames are far smaller, so they still cost one
// exact-size allocation.
const readChunk = 64 << 10

// ReadFrame reads one frame written by WriteFrame. The announced length is
// a claim by the peer: beyond readChunk the buffer grows only as fast as
// body bytes actually arrive (at most doubling), so a header announcing
// MaxFrame on a stream that then stalls or ends costs one chunk, not 16 MiB.
func ReadFrame(r io.Reader) (kind uint8, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	buf := make([]byte, min(n, readChunk))
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	for len(buf) < n {
		got := len(buf)
		buf = append(buf, make([]byte, min(n-got, got))...)
		if _, err = io.ReadFull(r, buf[got:]); err != nil {
			return 0, nil, err
		}
	}
	return buf[0], buf[1:], nil
}
