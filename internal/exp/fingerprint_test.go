package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// figFingerprints pins the rendered output of every fig4–fig8 experiment at
// a tiny scale across a seed matrix to the values captured on the tree
// IMMEDIATELY BEFORE the execution-port refactor (PR 4), when internal/core
// still hard-coded *sim.Proc. The rendered tables are a function of the
// run's Stats (ops, commits, message counts, latencies in virtual time), so
// matching hashes mean the port extraction — interface indirection, stats
// sharding, memory/register/directory locking — changed no simulated
// behavior: same seed ⇒ same Stats, bit for bit.
//
// If a LATER change legitimately alters simulated behavior (a protocol or
// timing change), re-capture these values and say so in the commit message;
// this test exists so that such changes are loud and deliberate, never
// accidental.
//
// The two Quick-scale seed-1 rows are the sim baselines tm2c-bench's
// committed fig5a and scaleplace tables used to be: captured on the parent
// of PR 15, where rendering the committed tables gave the same two hashes.
// They keep what those files gated — the default, trace-off plane of the
// bank figure and of every placement policy stays cell-identical.
//
// The scaleplace row was re-captured twice. When the heat plane learned to
// sleep: hash rows cell-identical; uniform adaptive/hier rows
// cell-identical except leaves 64 -> 0; the Zipf adaptive/hier rows moved
// inside their seed-to-seed spread (docs/perf/PR-21.md has both tables).
// When the flat adaptive policy was retired: its two rows and the last note
// went, the hash and hier rows stayed cell-identical (docs/RETIRED.md).
//
// The abltl2 rows were captured before the change that first pinned them
// touched internal/core: fig4–fig8 all run the visible protocol, so until
// then TL2 was pinned by nothing but run-to-run determinism tests. The
// ablbatch and ablgran rows captured beside them went with those two
// experiments, once write-lock batching became unconditional and a lock key
// became an object's base address (docs/RETIRED.md); the coalescing plane is
// pinned in internal/core (TestCoalesceSingletonPlaneBitIdentical,
// TestOutboxEnvelopeDelivered). Irrevocables are pinned in internal/core
// (TestIrrevocableMixFingerprint), since the experiment that mixed them into
// the bank was retired (docs/RETIRED.md).
//
// The two fig6a rows were re-captured once, in PR 18, when the table's note
// stopped citing a deleted document; every cell of the table was unchanged.
//
// 26 rows were re-captured when a write losing WAR to a reader under Wholly
// or FairCM began to wait for that reader's attempt to end before retrying:
// a deliberate protocol change. The offset-greedy, backoff and no-cm cells of
// fig5a and fig5c are unchanged; CHANGES.md lists every old and new hash.
//
// 11 rows were re-captured when a TArray scan began to batch its read locks
// per DTM node (Tx.readElem), a deliberate protocol change: the rows of the
// experiments that scan a TArray, fig5a-d and fig8b at seeds 3 and 9 and
// fig5a at Quick scale. CHANGES.md lists every old and new hash.
var figFingerprints = []struct {
	id    string
	scale Scale // Seed is overridden by seed
	seed  uint64
	want  uint64
}{
	{"fig4a", fingerprintScale, 3, 0x8e82d9232008be69},
	{"fig4b", fingerprintScale, 3, 0x27c546527f4123bb},
	{"fig4c", fingerprintScale, 3, 0x84e4f3d7031fe844},
	{"fig5a", fingerprintScale, 3, 0x48fc5371076f8832},
	{"fig5b", fingerprintScale, 3, 0x976dbde57bf88981},
	{"fig5c", fingerprintScale, 3, 0x5f586acb86769f88},
	{"fig5d", fingerprintScale, 3, 0x2f148536d3eb908d},
	{"fig6a", fingerprintScale, 3, 0xab36ffbde42e2920},
	{"fig6b", fingerprintScale, 3, 0xf8ebf93688805c3b},
	{"fig7a", fingerprintScale, 3, 0xcce4d693817cb46c},
	{"fig7b", fingerprintScale, 3, 0x7a69c2aa780744e7},
	{"fig8a", fingerprintScale, 3, 0x604384acd9a27940},
	{"fig8b", fingerprintScale, 3, 0x39b03aa75e347081},
	{"fig8c", fingerprintScale, 3, 0x9300e6932a37de85},
	{"fig8d", fingerprintScale, 3, 0xb90fa0f0d7b7fe30},
	{"fig4a", fingerprintScale, 9, 0x015438014b323726},
	{"fig4b", fingerprintScale, 9, 0xd0319fff92d161c8},
	{"fig4c", fingerprintScale, 9, 0xcd466a6fd0082c6a},
	{"fig5a", fingerprintScale, 9, 0x2c311fbcdf84e882},
	{"fig5b", fingerprintScale, 9, 0x1ea78f25fde61595},
	{"fig5c", fingerprintScale, 9, 0x675f821592aedbfb},
	{"fig5d", fingerprintScale, 9, 0xe44ae908ac0ce6de},
	{"fig6a", fingerprintScale, 9, 0xa4c86f38da2ec514},
	{"fig6b", fingerprintScale, 9, 0x5c91c7a1e24c406f},
	{"fig7a", fingerprintScale, 9, 0xf30198ad6bdc2877},
	{"fig7b", fingerprintScale, 9, 0x2d3dc2a3c90bcfbb},
	{"fig8a", fingerprintScale, 9, 0x604384acd9a27940},
	{"fig8b", fingerprintScale, 9, 0x717feed197ae8895},
	{"fig8c", fingerprintScale, 9, 0xfea70bafce390712},
	{"fig8d", fingerprintScale, 9, 0x946c178421d0f179},
	{"abltl2", fingerprintScale, 3, 0x909db25ef2d95b41},
	{"abltl2", fingerprintScale, 9, 0xb3c4fa690dcd8903},
	{"fig5a", Quick, 1, 0x2807108ecc682bdb},
	{"scaleplace", Quick, 1, 0xa95c9310bfddb96f},
}

// fingerprintScale matches the fig4–fig8 capture run exactly; any change
// invalidates the recorded hashes.
var fingerprintScale = Scale{Duration: 800 * time.Microsecond, SizeDiv: 16, Cores: []int{4, 8}}

func fnv1a(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestFigureFingerprintsBitIdentical runs the fingerprint matrix on the sim
// backend and asserts the rendered results are bit-identical to the
// captures.
func TestFigureFingerprintsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig4–fig8 seed matrix takes a few seconds")
	}
	for _, c := range figFingerprints {
		c := c
		t.Run(fmt.Sprintf("%s/seed%d", c.id, c.seed), func(t *testing.T) {
			e, ok := ByID(c.id)
			if !ok {
				t.Fatalf("experiment %q not registered", c.id)
			}
			sc := c.scale
			sc.Seed = c.seed
			var sb strings.Builder
			for _, tab := range e.Run(sc, Overrides{}) {
				tab.Render(&sb)
			}
			if got := fnv1a(sb.String()); got != c.want {
				t.Errorf("%s seed %d: fingerprint %#016x, want %#016x — simulated behavior changed",
					c.id, c.seed, got, c.want)
			}
		})
	}
}
