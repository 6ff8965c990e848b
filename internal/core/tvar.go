package core

import (
	"fmt"

	"repro/internal/mem"
)

// The typed transactional layer. The word-level Tx API (Read/ReadN/Write/
// WriteN over mem.Addr) mirrors the paper's TX_LOAD/TX_STORE and stays the
// supported low-level substrate; TVar and TArray are a zero-cost veneer on
// top of it: a typed handle over an n-word object plus a WordCodec that
// translates the application type to and from the object's words. A TVar
// access, a TArray.Set and an At(i).Get map to exactly one ReadN/WriteN of
// the same base and length, so migrating an application from hand-rolled
// word encodings to TVars changes neither its lock keys nor its
// virtual-time behavior. TArray.Get is the one exception: from the third
// consecutive element of a scan on, a miss under visible reads also takes
// read locks ahead of the scan, in the same request (Tx.readElem).
//
// Allocation is where data placement is decided on a many-core (§5.2 keeps
// new elements in the allocating core's closest memory controller), so the
// placement hint lives in the constructors: NewTVarNear/NewTArrayNear
// allocate behind the controller closest to a core, NewTVarAt/NewTArrayAt
// behind an explicit controller.

// WordCodec encodes values of type T as a fixed number of 64-bit words —
// the object granularity of the TM2C lock protocol. Encode must write
// exactly Words() words into dst; Decode must read only src[:Words()].
type WordCodec[T any] interface {
	Words() int
	Encode(v T, dst []uint64)
	Decode(src []uint64) T
}

// oneWord is what the built-in one-word codecs add to WordCodec: a value to
// and from its word without a word slice, so raw access through them
// allocates nothing (a slice passed through the interface escapes).
type oneWord[T any] interface {
	toWord(T) uint64
	fromWord(uint64) T
}

// wordCodec is the codec of every integer type one word holds as is.
type wordCodec[T ~uint64 | ~int64] struct{}

func (wordCodec[T]) Words() int             { return 1 }
func (wordCodec[T]) Encode(v T, d []uint64) { d[0] = uint64(v) }
func (wordCodec[T]) Decode(s []uint64) T    { return T(s[0]) }
func (wordCodec[T]) toWord(v T) uint64      { return uint64(v) }
func (wordCodec[T]) fromWord(w uint64) T    { return T(w) }

// Uint64Codec returns the codec for a single uint64 word.
func Uint64Codec() WordCodec[uint64] { return wordCodec[uint64]{} }

// Int64Codec returns the codec for a single int64 (two's complement word).
func Int64Codec() WordCodec[int64] { return wordCodec[int64]{} }

// AddrCodec returns the codec for a shared-memory address — the typed form
// of a pointer field in a linked structure (mem.Nil is the null pointer).
func AddrCodec() WordCodec[mem.Addr] { return wordCodec[mem.Addr]{} }

type boolCodec struct{}

func (boolCodec) Words() int                  { return 1 }
func (c boolCodec) Encode(v bool, d []uint64) { d[0] = c.toWord(v) }
func (boolCodec) Decode(s []uint64) bool      { return s[0] != 0 }
func (boolCodec) toWord(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
func (boolCodec) fromWord(w uint64) bool { return w != 0 }

// BoolCodec returns the codec for a bool (0/1 word).
func BoolCodec() WordCodec[bool] { return boolCodec{} }

// funcCodec adapts a (words, encode, decode) triple into a WordCodec.
type funcCodec[T any] struct {
	words int
	enc   func(T, []uint64)
	dec   func([]uint64) T
}

func (c funcCodec[T]) Words() int               { return c.words }
func (c funcCodec[T]) Encode(v T, dst []uint64) { c.enc(v, dst) }
func (c funcCodec[T]) Decode(src []uint64) T    { return c.dec(src) }

// FuncCodec builds a WordCodec from explicit encode/decode functions — the
// escape hatch for fixed-size application structs (list nodes, histograms,
// records). words must be positive and both functions must honor it.
func FuncCodec[T any](words int, enc func(v T, dst []uint64), dec func(src []uint64) T) WordCodec[T] {
	if words <= 0 {
		panic(fmt.Sprintf("core: FuncCodec with %d words", words))
	}
	if enc == nil || dec == nil {
		panic("core: FuncCodec with nil encode/decode")
	}
	return funcCodec[T]{words: words, enc: enc, dec: dec}
}

// TVar is a typed transactional variable: one n-word shared-memory object
// accessed through a codec. The zero TVar is invalid; construct one with
// NewTVar/NewTVarNear/NewTVarAt or view an existing allocation with TVarAt.
// TVars are small values — copy them freely.
type TVar[T any] struct {
	sys   *System
	codec WordCodec[T]
	base  mem.Addr
}

// NewTVar allocates a TVar behind memory controller 0 and raw-writes init
// (setup outside the simulated machine; zero words are free).
func NewTVar[T any](sys *System, c WordCodec[T], init T) TVar[T] {
	return NewTVarAt(sys, c, 0, init)
}

// NewTVarAt allocates a TVar behind the given memory controller and
// raw-writes init.
func NewTVarAt[T any](sys *System, c WordCodec[T], mc int, init T) TVar[T] {
	v := TVar[T]{sys: sys, codec: c, base: sys.Mem.Alloc(c.Words(), mc)}
	v.SetRaw(init)
	return v
}

// NewTVarNear allocates a TVar behind the memory controller closest to
// core and raw-writes init — the data-placement hint of §5.2 ("each core
// adding a new element stores it in its closest memory controller").
// Workers allocating inside a transaction pass the zero value as init (raw
// zero writes are no-ops) and populate the object with a transactional Set.
func NewTVarNear[T any](sys *System, c WordCodec[T], core int, init T) TVar[T] {
	v := TVar[T]{sys: sys, codec: c, base: sys.Mem.AllocNear(c.Words(), core)}
	v.SetRaw(init)
	return v
}

// TVarAt views the existing allocation at base as a TVar — the typed form
// of following a pointer in a linked structure.
func TVarAt[T any](sys *System, c WordCodec[T], base mem.Addr) TVar[T] {
	return TVar[T]{sys: sys, codec: c, base: base}
}

// Addr returns the object's base address (its identity for lock striping,
// EarlyRelease, and pointer fields).
func (v TVar[T]) Addr() mem.Addr { return v.base }

// Words returns the object size in words.
func (v TVar[T]) Words() int { return v.codec.Words() }

// Get transactionally reads the variable (one ReadN of the whole object).
func (v TVar[T]) Get(tx *Tx) T {
	// Decode from the transaction-internal view: the decoded T is the only
	// thing that leaves this frame, so no defensive word copy is needed.
	return v.codec.Decode(tx.readNView(v.base, v.codec.Words()))
}

// Set transactionally writes the variable (one WriteN of the whole object).
func (v TVar[T]) Set(tx *Tx, val T) {
	// Encode into the per-attempt word arena; WriteN copies the words into
	// the write buffer, so the scratch is free for the next operation.
	_, buf := tx.rt.wordBuf(v.codec.Words())
	v.codec.Encode(val, buf)
	tx.WriteN(v.base, buf)
}

// GetRaw reads the variable without latency accounting (setup and
// verification code outside the simulated machine).
func (v TVar[T]) GetRaw() T {
	if c, ok := v.codec.(oneWord[T]); ok {
		return c.fromWord(v.sys.Mem.ReadRaw(v.base))
	}
	buf := make([]uint64, v.codec.Words())
	for i := range buf {
		buf[i] = v.sys.Mem.ReadRaw(v.base + mem.Addr(i))
	}
	return v.codec.Decode(buf)
}

// SetRaw writes the variable without latency accounting.
func (v TVar[T]) SetRaw(val T) {
	if c, ok := v.codec.(oneWord[T]); ok {
		v.sys.Mem.WriteRaw(v.base, c.toWord(val))
		return
	}
	v.sys.Mem.FillRaw(v.base, 1, v.encode(val))
}

// encode returns val's words in a fresh slice.
func (v TVar[T]) encode(val T) []uint64 {
	buf := make([]uint64, v.codec.Words())
	v.codec.Encode(val, buf)
	return buf
}

// GetDirect reads the variable non-transactionally with charged memory
// latency (one batched access, like the word-level Mem.ReadBatch) — for
// bare-sequential baselines and privatized data. §2's caveat applies:
// transactional data must not be accessed directly while transactions may
// touch it.
func (v TVar[T]) GetDirect(p Port, core int) T {
	return v.codec.Decode(v.sys.Mem.ReadBatch(p, core, v.base, v.codec.Words()))
}

// SetDirect writes the variable non-transactionally with charged memory
// latency (one batched access).
func (v TVar[T]) SetDirect(p Port, core int, val T) {
	addrs := make([]mem.Addr, v.codec.Words())
	for i := range addrs {
		addrs[i] = v.base + mem.Addr(i)
	}
	v.sys.Mem.WriteBatch(p, core, addrs, v.encode(val))
}

// GetIr reads the variable inside an irrevocable transaction.
func (v TVar[T]) GetIr(ir *Irrevocable) T {
	return v.codec.Decode(ir.ReadN(v.base, v.codec.Words()))
}

// SetIr writes the variable inside an irrevocable transaction
// (write-through; there is no abort).
func (v TVar[T]) SetIr(ir *Irrevocable, val T) { ir.WriteN(v.base, v.encode(val)) }

// EarlyRelease drops the object's read lock before commit (elastic-early
// transactions only; see Tx.EarlyRelease).
func (v TVar[T]) EarlyRelease(tx *Tx) { tx.EarlyRelease(v.base) }

// TArray is a typed transactional array: n contiguous objects of the same
// codec, each locked independently under its own base address. Like TVar,
// the zero TArray is invalid and values are cheap to copy.
type TArray[T any] struct {
	sys   *System
	codec WordCodec[T]
	base  mem.Addr
	n     int
}

// NewTArray allocates an n-element TArray behind memory controller 0 and
// raw-writes init into every element (like the paper's benchmark state,
// which funds its whole array behind one controller).
func NewTArray[T any](sys *System, c WordCodec[T], n int, init T) TArray[T] {
	return NewTArrayAt(sys, c, n, 0, init)
}

// NewTArrayAt allocates the array behind the given memory controller and
// raw-writes init into every element: one encode, then a page-at-a-time
// fill (a zero init touches no page).
func NewTArrayAt[T any](sys *System, c WordCodec[T], n, mc int, init T) TArray[T] {
	if n <= 0 {
		panic(fmt.Sprintf("core: TArray of %d elements", n))
	}
	a := TArray[T]{sys: sys, codec: c, base: sys.Mem.Alloc(n*c.Words(), mc), n: n}
	sys.Mem.FillRaw(a.base, n, a.At(0).encode(init))
	return a
}

// NewTArrayNear allocates the array behind the controller closest to core.
func NewTArrayNear[T any](sys *System, c WordCodec[T], n, core int, init T) TArray[T] {
	return NewTArrayAt(sys, c, n, sys.Mem.NearestMC(core), init)
}

// Len returns the element count.
func (a TArray[T]) Len() int { return a.n }

// Addr returns element i's base address.
func (a TArray[T]) Addr(i int) mem.Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("core: TArray index %d out of %d", i, a.n))
	}
	return a.base + mem.Addr(i*a.codec.Words())
}

// At returns a TVar view of element i.
func (a TArray[T]) At(i int) TVar[T] {
	return TVar[T]{sys: a.sys, codec: a.codec, base: a.Addr(i)}
}

// Get transactionally reads element i. A run of consecutive Gets batches its
// read locks under visible reads (Tx.readElem); At(i).Get never does.
func (a TArray[T]) Get(tx *Tx, i int) T {
	return a.codec.Decode(tx.readElem(a.base, a.Addr(i), a.codec.Words(), a.n))
}

// Set transactionally writes element i.
func (a TArray[T]) Set(tx *Tx, i int, val T) { a.At(i).Set(tx, val) }

// GetRaw reads element i without latency accounting.
func (a TArray[T]) GetRaw(i int) T { return a.At(i).GetRaw() }

// SetRaw writes element i without latency accounting.
func (a TArray[T]) SetRaw(i int, val T) { a.At(i).SetRaw(val) }
