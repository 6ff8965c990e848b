package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// TestFrameRoundTrip: what WriteFrame writes, ReadFrame reads back, frame
// after frame on one stream.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// The last body is read in several growth steps (over readChunk).
	bodies := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 4096), bytes.Repeat([]byte{0xcd}, 5*readChunk+7)}
	for i, b := range bodies {
		if err := WriteFrame(&buf, uint8(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range bodies {
		kind, body, err := ReadFrame(&buf)
		if err != nil || kind != uint8(i+1) || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: kind %d, %d-byte body, err %v", i, kind, len(body), err)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
	if err := WriteFrame(io.Discard, 1, make([]byte, MaxFrame)); err == nil {
		t.Fatal("WriteFrame accepted a body over MaxFrame")
	}
}

// TestDecCountBoundsAllocation: Count refuses a count the unread bytes
// cannot back, and every slice decoder is built on it.
func TestDecCountBoundsAllocation(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	if d := NewDec(huge, nil); d.Count(1) != 0 || d.Err() == nil {
		t.Error("Count accepted 2^32-1 one-byte elements in 3 bytes")
	}
	if d := NewDec(huge, nil); d.U64s() != nil || d.Err() == nil {
		t.Error("U64s accepted 2^32-1 words in 3 bytes")
	}
	if d := NewDec(huge, nil); d.Bytes32() != nil || d.Err() == nil {
		t.Error("Bytes32 accepted 2^32-1 bytes in 3 bytes")
	}
	d := NewDec([]byte{2, 0, 0, 0, 9, 8}, nil)
	if n := d.Count(1); n != 2 || d.Err() != nil || d.Peek() != 9 {
		t.Errorf("Count = %d (err %v), next byte %d; want 2, nil, 9", n, d.Err(), d.Peek())
	}
	// A frame header is the same kind of claim: announcing MaxFrame and
	// then ending the stream after 8 body bytes must cost an error and one
	// read chunk, not the announced 16 MiB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, body, err := ReadFrame(bytes.NewReader(truncatedMaxFrame()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("ReadFrame returned a %d-byte body from an 8-byte stream", len(body))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
		t.Errorf("ReadFrame allocated %d bytes for 8 received body bytes, want < 128 KiB", alloc)
	}
}

// truncatedMaxFrame is a header announcing a MaxFrame-byte frame followed
// by only 8 body bytes.
func truncatedMaxFrame() []byte {
	b := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	return append(b, 1, 2, 3, 4, 5, 6, 7, 8)
}

// FuzzReadFrame reads frames from arbitrary bytes the way a connection
// reader does. Properties: it never panics, a frame it accepts is exactly
// the bytes its length prefix announced (at most MaxFrame), and it never
// reads past them.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, 2, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})             // zero length: no kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length far over MaxFrame
	f.Add([]byte{5, 0, 0, 0, 1, 2})       // truncated body
	f.Add(truncatedMaxFrame())            // announces 16 MiB, delivers 8 bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		for {
			before := r.Len()
			kind, body, err := ReadFrame(r)
			if err != nil {
				return
			}
			if n := 4 + 1 + len(body); n > 4+MaxFrame || before-r.Len() != n || kind != b[len(b)-before+4] {
				t.Fatalf("frame of kind %d with a %d-byte body consumed %d bytes", kind, len(body), before-r.Len())
			}
		}
	})
}
