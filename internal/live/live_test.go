package live

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/port"
)

// The mailbox and lifecycle cases live in internal/port's contract suite,
// which runs them over this engine among others.

// TestOutboxConcurrentFlushOrdering: the Outbox contract on the live
// backend. Each sender goroutine owns its own Outbox (the contract: one
// outbox per execution port) and stages bursts for two destinations
// concurrently with the other senders. Even under real concurrency, one
// sender's payloads must reach each destination in staged order — a flush's
// same-destination payloads travel as one Batch envelope and the mailbox
// unpacks it in order — and multi-payload envelopes must actually occur.
// The sim-backend tests pin first-staged order deterministically; this is
// the racing counterpart (run under -race in CI).
func TestOutboxConcurrentFlushOrdering(t *testing.T) {
	const (
		senders  = 4
		bursts   = 60
		perBurst = 3 // payloads per destination per burst → every flush coalesces
	)
	type item struct{ sender, seq int }
	e := New(7)
	perRecv := senders * bursts * perBurst
	type recvResult struct {
		seqs      map[int][]int // sender → seqs in delivery order
		envelopes int
	}
	results := make(chan recvResult, 2)
	var recvs [2]port.Port
	for i := 0; i < 2; i++ {
		recvs[i] = e.Spawn(fmt.Sprintf("recv%d", i), func(p port.Port) {
			var envelopes atomic.Int64
			p.(*port.HostPort).SetBatchHook(func(n int) {
				if n >= 2 {
					envelopes.Add(1)
				}
			})
			r := recvResult{seqs: make(map[int][]int)}
			for n := 0; n < perRecv; n++ {
				it := p.Recv().Payload.(item)
				r.seqs[it.sender] = append(r.seqs[it.sender], it.seq)
			}
			r.envelopes = int(envelopes.Load())
			results <- r
		})
	}
	for s := 0; s < senders; s++ {
		sender := s
		e.Spawn(fmt.Sprintf("send%d", sender), func(p port.Port) {
			var o port.Outbox
			next := [2]int{}
			for b := 0; b < bursts; b++ {
				// Interleave the two destinations within the burst so each
				// flush carries a multi-payload entry per destination.
				for k := 0; k < perBurst; k++ {
					for d := 0; d < 2; d++ {
						o.Stage(recvs[d], d, item{sender, next[d]}, 8, 0)
						next[d]++
					}
				}
				o.Flush(func(en *port.OutEntry) {
					if len(en.Payloads) == 1 {
						p.Send(en.Dst, en.Payloads[0], 0)
						return
					}
					// The outbox retains en.Payloads after Flush returns, so
					// the envelope must carry its own copy (the same contract
					// core.sendEntry follows).
					b := port.GetBatch()
					b.Payloads = append(b.Payloads, en.Payloads...)
					p.Send(en.Dst, b, 0)
				})
				p.Yield()
			}
		})
	}
	e.Start()
	defer e.Shutdown()
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.envelopes == 0 {
				t.Errorf("receiver saw no multi-payload envelope; coalescing never happened")
			}
			for s := 0; s < senders; s++ {
				seqs := r.seqs[s]
				if len(seqs) != bursts*perBurst {
					t.Fatalf("sender %d: %d payloads delivered, want %d", s, len(seqs), bursts*perBurst)
				}
				for j, v := range seqs {
					if v != j {
						t.Fatalf("sender %d: payload %d has seq %d; staged order broken (got %v...)",
							s, j, v, seqs[:j+1])
					}
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("receivers did not drain in time")
		}
	}
}
