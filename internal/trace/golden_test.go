// Golden-trace and determinism tests: drive a real contended-bank run
// through the core runtime with the flight recorder on and pin the rendered
// chrome trace_event output byte-for-byte. The external test package breaks
// the core→trace import cycle.
package trace_test

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace testdata")

// goldenConfig is the pinned contended-bank run: few accounts on many cores
// forces conflict aborts (the taxonomy coverage). Every burst goes through
// the coalescing plane's staging point; with one payload per node per burst
// nothing merges, so envelope rendering is TestWriteChrome's, on a
// synthetic trace.
func goldenConfig(proto core.Protocol) core.Config {
	return core.Config{
		Backend:    core.BackendSim,
		Seed:       3,
		TotalCores: 8,
		Policy:     cm.FairCM,
		Coalesce:   true,
		Protocol:   proto,
		Trace:      &trace.Options{ActorEvents: 1 << 15},
	}
}

// runGoldenBank executes the pinned workload and returns the system after
// quiesce.
func runGoldenBank(t *testing.T, proto core.Protocol) (*core.System, *core.Stats) {
	t.Helper()
	s, err := core.NewSystem(goldenConfig(proto))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	b := bank.New(s, 8)
	s.SpawnWorkers(b.TransferWorker(10))
	st := s.Run(300 * time.Microsecond)
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
	}
	return s, st
}

// TestGoldenChromeTrace pins the chrome renderer's bytes on the contended
// bank run. The golden file must render in chrome://tracing / Perfetto and
// is asserted to contain at least one taxonomy abort span — the observable
// artifact the flight recorder exists for. Regenerate with:
// go test ./internal/trace -run Golden -update
func TestGoldenChromeTrace(t *testing.T) {
	s, _ := runGoldenBank(t, core.ProtocolVisible)
	tr := s.Trace()
	if tr == nil {
		t.Fatal("no trace assembled")
	}
	if tr.Dropped != 0 {
		t.Fatalf("ring overflow: %d events dropped; grow ActorEvents", tr.Dropped)
	}
	if tr.CountKind(trace.KAbort) == 0 {
		t.Fatal("golden run produced no aborts; the workload must be contended")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// The golden file is stored gzipped (~12k lines of JSON compress ~20x);
	// the comparison is still against the exact uncompressed bytes.
	golden := filepath.Join("testdata", "golden_bank_chrome.json.gz")
	if *update {
		if err := writeGzipped(golden, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readGzipped(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace deviates from %s (%d vs %d bytes); run with -update and review the diff",
			golden, buf.Len(), len(want))
	}
}

func writeGzipped(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	_, err = zw.Write(data)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readGzipped(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// TestSimTraceDeterministic asserts the tentpole's determinism guarantee:
// two identical sim runs with tracing on produce identical event streams.
func TestSimTraceDeterministic(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtocolVisible, core.ProtocolTL2} {
		t.Run(proto.String(), func(t *testing.T) {
			s1, _ := runGoldenBank(t, proto)
			s2, _ := runGoldenBank(t, proto)
			t1, t2 := s1.Trace(), s2.Trace()
			if len(t1.Events) != len(t2.Events) {
				t.Fatalf("event counts differ: %d vs %d", len(t1.Events), len(t2.Events))
			}
			if !reflect.DeepEqual(t1.Events, t2.Events) {
				for i := range t1.Events {
					if t1.Events[i] != t2.Events[i] {
						t.Fatalf("first divergence at event %d: %+v vs %+v", i, t1.Events[i], t2.Events[i])
					}
				}
			}
		})
	}
}

// TestTraceStatsConsistency cross-checks the trace against the Stats the
// same run counted: every commit, abort, and per-reason abort must appear
// exactly once in the event stream. The TL2 variant adds doomed-read
// coverage (snapshot-staleness aborts).
func TestTraceStatsConsistency(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtocolVisible, core.ProtocolTL2} {
		t.Run(proto.String(), func(t *testing.T) {
			s, st := runGoldenBank(t, proto)
			tr := s.Trace()
			if tr.Dropped != 0 {
				t.Fatalf("ring overflow: %d events dropped", tr.Dropped)
			}
			if got := uint64(tr.CountKind(trace.KCommit)); got != st.Commits {
				t.Errorf("KCommit events %d != Stats.Commits %d", got, st.Commits)
			}
			if got := uint64(tr.CountKind(trace.KAbort)); got != st.Aborts+st.UserAborts {
				t.Errorf("KAbort events %d != Stats.Aborts+UserAborts %d", got, st.Aborts+st.UserAborts)
			}
			var byReason [trace.NumReasons]uint64
			for _, e := range tr.Events {
				if e.Kind == trace.KAbort {
					byReason[e.A]++
				}
			}
			var sum uint64
			for r, got := range byReason {
				if got != st.AbortReasons[r] {
					t.Errorf("reason %s: %d abort events != Stats.AbortReasons %d",
						trace.Reason(r), got, st.AbortReasons[r])
				}
				sum += st.AbortReasons[r]
			}
			if sum != st.Aborts+st.UserAborts {
				t.Errorf("sum(AbortReasons)=%d != Aborts+UserAborts=%d", sum, st.Aborts+st.UserAborts)
			}
			if proto == core.ProtocolTL2 && st.DoomedReads > 0 && tr.CountKind(trace.KDoomedRead) == 0 {
				t.Error("Stats counted doomed reads but the trace has no KDoomedRead event")
			}
		})
	}
}
