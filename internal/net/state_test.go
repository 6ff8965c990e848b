package net

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/wire"
)

// TestServeStateBoundsReadBatch: the word count of a batch read comes off
// the wire and sizes an allocation, so a count no response frame could carry
// (or a negative one) must fault the run before anything is allocated for
// it. The engine is never started: a rejected request writes no response.
func TestServeStateBoundsReadBatch(t *testing.T) {
	for _, n := range []int{maxReadBatch + 1, math.MaxInt64, -1} {
		e, err := New(Config{Rank: 0, Ranks: 2, Addrs: []string{"unix:/unused0", "unix:/unused1"}})
		if err != nil {
			t.Fatal(err)
		}
		pl := noc.SCC(0)
		e.BindState(mem.New(&pl), mem.NewRegisters(&pl), func(int) int { return 0 })
		req := wire.NewEnc(nil)
		req.U64(1) // correlation ID
		req.U8(opReadBatchRaw)
		req.U64(0)
		req.Int(n)
		e.serveState(e.links[1], req.Bytes())
		if e.Fault() == nil {
			t.Errorf("batch read of %d words was served", n)
		}
	}
}
