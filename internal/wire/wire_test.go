package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// frameSource reads successive frames of one stream: ReadFrame over the
// stream itself, or one FrameReader's Next.
type frameSource func() (kind uint8, body []byte, err error)

// bothReaders runs check against each of the two ways to read b's frames.
func bothReaders(b []byte, check func(name string, next frameSource)) {
	r := bytes.NewReader(b)
	check("ReadFrame", func() (uint8, []byte, error) { return ReadFrame(r) })
	check("FrameReader", NewFrameReader(bytes.NewReader(b)).Next)
}

// TestFrameRoundTrip: what WriteFrame writes, ReadFrame and a FrameReader
// read back, frame after frame on one stream.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// Bodies on both sides of the read-ahead's size (past it, a read goes
	// around the read-ahead) and one read in several growth steps (over
	// readChunk); small ones after large ones, so a reused buffer shows.
	bodies := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, readAhead), bytes.Repeat([]byte{0xef}, readAhead-frameHdr),
		{2, 3}, bytes.Repeat([]byte{0xcd}, 5*readChunk+7), {4}, bytes.Repeat([]byte{0x12}, readAhead+1)}
	for i, b := range bodies {
		if err := WriteFrame(&buf, uint8(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	bothReaders(buf.Bytes(), func(name string, next frameSource) {
		for i, want := range bodies {
			kind, body, err := next()
			if err != nil || kind != uint8(i+1) || !bytes.Equal(body, want) {
				t.Fatalf("%s: frame %d: kind %d, %d-byte body, err %v", name, i, kind, len(body), err)
			}
		}
		if _, _, err := next(); err != io.EOF {
			t.Fatalf("%s: read past the last frame: %v, want io.EOF", name, err)
		}
	})
	if err := WriteFrame(io.Discard, 1, make([]byte, MaxFrame)); err == nil {
		t.Fatal("WriteFrame accepted a body over MaxFrame")
	}
	// An encoder's own bytes go out as the same frame, uncopied.
	e := NewEnc(nil)
	e.U32(7)
	e.Raw([]byte("tail"))
	f, err := e.Frame(9)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := ReadFrame(bytes.NewReader(f))
	if err != nil || kind != 9 || !bytes.Equal(body, e.Bytes()) || !bytes.Equal(body, []byte{7, 0, 0, 0, 't', 'a', 'i', 'l'}) {
		t.Fatalf("Enc.Frame: kind %d, body %v, err %v", kind, body, err)
	}
}

// TestFrameReaderAllocFree: in the steady state a FrameReader allocates
// nothing, whatever the sizes of the frames, once its body buffer has grown
// to the largest of them.
func TestFrameReaderAllocFree(t *testing.T) {
	var stream bytes.Buffer
	for _, n := range []int{0, 24, 64, readAhead - frameHdr, 3 * readAhead} {
		WriteFrame(&stream, 2, make([]byte, n))
	}
	src := bytes.NewReader(nil)
	fr := NewFrameReader(src)
	pass := func() {
		src.Reset(stream.Bytes())
		for i := 0; i < 5; i++ {
			if _, _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // grows the body buffer once
	if a := testing.AllocsPerRun(100, pass); a != 0 {
		t.Errorf("FrameReader allocated %.2f times per pass of five frames, want 0", a)
	}
}

// TestDecCountBoundsAllocation: Count refuses a count the unread bytes
// cannot back, and every slice decoder is built on it.
func TestDecCountBoundsAllocation(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	if d := NewDec(huge, nil); d.Count(1) != 0 || d.Err() == nil {
		t.Error("Count accepted 2^32-1 one-byte elements in 3 bytes")
	}
	if d := NewDec(huge, nil); len(d.U64s(nil)) != 0 || d.Err() == nil {
		t.Error("U64s accepted 2^32-1 words in 3 bytes")
	}
	d := NewDec([]byte{2, 0, 0, 0, 9, 8}, nil)
	if n := d.Count(1); n != 2 || d.Err() != nil {
		t.Errorf("Count = %d (err %v); want 2, nil", n, d.Err())
	}
	if b := d.U8(); b != 9 {
		t.Errorf("next byte %d after Count, want 9", b)
	}
	// A frame header is the same kind of claim: announcing MaxFrame and
	// then ending the stream after 8 body bytes must cost an error and one
	// read chunk, not the announced 16 MiB.
	bothReaders(truncatedMaxFrame(), func(name string, next frameSource) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, body, err := next()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s returned a %d-byte body from an 8-byte stream", name, len(body))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
			t.Errorf("%s allocated %d bytes for 8 received body bytes, want < 128 KiB", name, alloc)
		}
	})
}

// truncatedMaxFrame is a header announcing a MaxFrame-byte frame followed
// by only 8 body bytes.
func truncatedMaxFrame() []byte {
	b := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	return append(b, 1, 2, 3, 4, 5, 6, 7, 8)
}

// FuzzReadFrame reads frames from arbitrary bytes the way a connection
// reader does, through ReadFrame and through a FrameReader. Properties: it
// never panics, and a frame it accepts is exactly the bytes its length
// prefix announced (at most MaxFrame), starting where the previous frame
// ended; ReadFrame, which is unbuffered, never reads past them.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, 2, []byte("payload"))
	f.Add(buf.Bytes())
	WriteFrame(&buf, 3, make([]byte, readAhead)) // past the read-ahead, then small again
	WriteFrame(&buf, 4, []byte{1})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})             // zero length: no kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length far over MaxFrame
	f.Add([]byte{5, 0, 0, 0, 1, 2})       // truncated body
	f.Add(truncatedMaxFrame())            // announces 16 MiB, delivers 8 bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		var frames [2]int
		r := bytes.NewReader(b)
		for i, next := range []frameSource{
			func() (uint8, []byte, error) { return ReadFrame(r) },
			NewFrameReader(bytes.NewReader(b)).Next,
		} {
			for off := 0; ; frames[i]++ {
				kind, body, err := next()
				if err != nil {
					break
				}
				end := off + frameHdr + len(body)
				if len(body)+1 > MaxFrame || end > len(b) || int(binary.LittleEndian.Uint32(b[off:])) != len(body)+1 ||
					kind != b[off+4] || !bytes.Equal(body, b[off+frameHdr:end]) {
					t.Fatalf("reader %d: frame of kind %d with a %d-byte body at offset %d of %d", i, kind, len(body), off, len(b))
				}
				if i == 0 && len(b)-r.Len() != end {
					t.Fatalf("ReadFrame consumed %d bytes for a frame ending at %d", len(b)-r.Len(), end)
				}
				off = end
			}
		}
		if frames[0] != frames[1] {
			t.Fatalf("ReadFrame accepted %d frames, FrameReader %d", frames[0], frames[1])
		}
	})
}
