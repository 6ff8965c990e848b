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
//     internal/core registers its four DTM protocol messages at init time;
//     nothing else ever crosses the wire, so the registry is closed and the
//     encoding is exhaustively property-tested.
//
// All integers are little-endian and fixed-width — no varints, no
// reflection, no per-build layout dependence — so two processes built from
// the same source always agree byte-for-byte. Version is bumped whenever
// any registered encoding or the frame layout changes; peers exchange it
// during the connection handshake and refuse mismatches.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"

	"repro/internal/port"
)

// Version identifies the wire format: frame layout, handshake shape, and
// every registered payload encoding. Peers with different versions refuse
// to talk during the handshake rather than misparse each other mid-run.
const Version uint16 = 8

// MaxFrame bounds a frame body so a corrupt or hostile length prefix cannot
// make a reader allocate unboundedly. The largest legitimate frames are
// state-RPC read-batch responses, far below this.
const MaxFrame = 16 << 20

// PortResolver maps a spawn-order port ID back to the local process's
// port.Port replica of that actor. Decoders use it to rebuild Reply fields;
// the net backend supplies its engine's port table.
type PortResolver func(id int) port.Port

// nilPort is the on-wire encoding of a nil port.Port reference.
const nilPort = math.MaxUint32

// frameHdr is the size of a frame's header: the u32 length and the kind.
const frameHdr = 5

// Enc is an append-only little-endian encoder. Its storage opens with room
// for a frame header, so what was encoded goes out as one frame (Frame)
// without being copied behind a header first.
type Enc struct {
	b []byte // frameHdr reserved bytes, then the encoded body
}

// reset empties the encoder, keeping its storage.
func (e *Enc) reset() *Enc {
	e.b = append(e.b[:0], make([]byte, frameHdr)...)
	return e
}

// NewEnc returns an encoder reusing buf's storage (pass nil for a fresh one).
func NewEnc(buf []byte) *Enc { return (&Enc{b: buf}).reset() }

// encPool recycles encoders for the per-message send paths. An encoder's
// buffer grows to the largest frame it ever carried and stays that size.
var encPool = sync.Pool{New: func() any { return &Enc{} }}

// GetEnc returns a pooled encoder, empty but with retained capacity.
func GetEnc() *Enc { return encPool.Get().(*Enc).reset() }

// PutEnc recycles an encoder. The caller must be done with every slice
// obtained from Bytes or Frame — the storage is reused by the next GetEnc.
func PutEnc(e *Enc) { encPool.Put(e) }

// Bytes returns the encoded buffer. It aliases the encoder's storage.
func (e *Enc) Bytes() []byte { return e.b[frameHdr:] }

// Frame returns what was encoded as the body of one complete frame, ready
// for a single Write. It aliases the encoder's storage.
func (e *Enc) Frame(kind uint8) ([]byte, error) {
	n := len(e.b) - frameHdr
	if n+1 > MaxFrame {
		return nil, fmt.Errorf("wire: frame body %d bytes exceeds MaxFrame", n)
	}
	binary.LittleEndian.PutUint32(e.b, uint32(n+1))
	e.b[4] = kind
	return e.b, nil
}

// Raw appends b as it is, with no count ahead of it.
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

func (e *Enc) U8(v uint8)       { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)     { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)      { e.U64(uint64(v)) }
func (e *Enc) Int(v int)        { e.I64(int64(v)) }
func (e *Enc) Time(t port.Time) { e.I64(int64(t)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64s encodes a slice as a u32 count followed by the elements.
func (e *Enc) U64s(vs []uint64) {
	e.b = slices.Grow(e.b, 4+8*len(vs))
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

// Reset points the decoder at b, unread and error-free, keeping Resolve.
func (d *Dec) Reset(b []byte) { d.b, d.off, d.err = b, 0, nil }

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

func (d *Dec) I64() int64      { return int64(d.U64()) }
func (d *Dec) Int() int        { return int(d.I64()) }
func (d *Dec) Time() port.Time { return port.Time(d.I64()) }
func (d *Dec) Bool() bool      { return d.U8() != 0 }

// U64s decodes a slice written by Enc.U64s into the storage of into (nil for
// none), growing it by no more than the count Count has checked.
func (d *Dec) U64s(into []uint64) []uint64 {
	into = into[:0]
	for n := d.Count(8); n > 0; n-- {
		into = append(into, d.U64())
	}
	return into
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

// Codec describes one registered payload type: a stable kind byte, the
// concrete Go type it encodes, and the encoder/decoder pair. Decode must
// return the same concrete type as Type (pointer types round-trip as new
// pointers). Release, when set, takes back a value of a pooled type whose
// last use was being encoded (ReleasePayload).
type Codec struct {
	Kind    uint8
	Type    reflect.Type
	Encode  func(e *Enc, v any)
	Decode  func(d *Dec) any
	Release func(v any)
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

// ReleasePayload recycles v through its codec's Release, if it has one. A
// transport calls it once v is encoded: the bytes travel on, and v — which
// the sender gave up at Send — has no other reader left.
func ReleasePayload(v any) {
	if c := byType[reflect.TypeOf(v)]; c != nil && c.Release != nil {
		c.Release(v)
	}
}

// DecodePayload reads one kind byte and body from d.
func DecodePayload(d *Dec) (any, error) {
	k := d.U8()
	if d.err != nil {
		return nil, d.err
	}
	c := byKind[k]
	if c == nil {
		// Latched, not just returned, so d.Err agrees with the result.
		d.Failf("wire: unknown payload kind %d", k)
		return nil, d.err
	}
	v := c.Decode(d)
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// WriteFrame writes one [u32 length][u8 kind][body] frame as a single Write
// call (one syscall, no partial-frame interleaving).
func WriteFrame(w io.Writer, kind uint8, body []byte) error {
	e := GetEnc()
	e.Raw(body)
	f, err := e.Frame(kind)
	if err == nil {
		_, err = w.Write(f)
	}
	PutEnc(e)
	return err
}

// readChunk is the most a reader allocates on the strength of a length
// prefix alone.
const readChunk = 64 << 10

// ReadFrame reads one frame written by WriteFrame into a buffer of its own,
// consuming exactly the frame's bytes from r: the form for a stream's first
// frame (the handshake), before a FrameReader takes the connection over.
func ReadFrame(r io.Reader) (kind uint8, body []byte, err error) {
	return (&FrameReader{r: r}).Next()
}

// FrameReader reads a connection's frames through a small read-ahead (a
// burst of frames costs one read syscall) into one buffer it reuses for every
// frame, which stays at the largest frame it carried.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// readAhead is the size of a FrameReader's read buffer.
const readAhead = 4 << 10

// NewFrameReader returns a frame reader over r. It reads ahead: bytes of r
// behind the last frame returned may already be consumed.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, readAhead)}
}

// Next reads one frame. body is borrowed: it is valid until the next call
// to Next, so a caller copies whatever it keeps. The announced length is a
// claim by the peer: storage not already held grows only as fast as bytes
// arrive (one readChunk, then at most doubling), so a header announcing
// MaxFrame on a stream that then stalls or ends costs one chunk, not 16 MiB.
func (fr *FrameReader) Next() (kind uint8, body []byte, err error) {
	buf := fr.buf
	if cap(buf) < 4 {
		buf = make([]byte, 4, 128) // a small first frame (the handshake) fits behind its header
	}
	if _, err = io.ReadFull(fr.r, buf[:4]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	for got, size := 0, min(n, max(readChunk, cap(buf))); got < n; got, size = size, min(n, 2*size) {
		if size > cap(buf) {
			buf = append(make([]byte, 0, size), buf[:got]...)
		}
		buf = buf[:size]
		if _, err = io.ReadFull(fr.r, buf[got:]); err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised these bytes
		}
		if err != nil {
			return 0, nil, err
		}
	}
	fr.buf = buf
	return buf[0], buf[1:], nil
}
