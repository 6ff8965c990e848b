package netboot

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBindFlagsStandalone: the bound -peers/-rank/-listen flags resolve to
// the standalone topology (no fork, no socket directory), and a rank
// outside the peer list is an error.
func TestBindFlagsStandalone(t *testing.T) {
	resolve := func(args ...string) (*Plan, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return r()
	}
	p, err := resolve("-peers", "10.0.0.1:7400,10.0.0.2:7400", "-rank", "1", "-listen", "0.0.0.0:7400")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"10.0.0.1:7400", "0.0.0.0:7400"}; p.Ranks != 2 || p.Rank != 1 || !reflect.DeepEqual(p.Addrs, want) {
		t.Errorf("plan = ranks %d rank %d addrs %v, want 2/1/%v", p.Ranks, p.Rank, p.Addrs, want)
	}
	if nc := p.NetConfig(); nc.Session != -1 || nc.Rank != 1 || len(nc.Addrs) != 2 {
		t.Errorf("NetConfig = %+v, want rank 1 of 2 with a drawn session", nc)
	}
	if err := p.Fork(); err != nil || len(p.children) != 0 {
		t.Errorf("standalone Fork spawned %d children (err %v)", len(p.children), err)
	}
	if _, err := resolve("-peers", "a:1,b:2", "-rank", "2"); err == nil {
		t.Error("rank 2 of 2 peers resolved")
	}
	if _, err := resolve("-groups", "1"); err == nil {
		t.Error("a one-process net group resolved")
	}
}

// TestOversubscriptionWarning: only a live or net run with more cores than
// GOMAXPROCS is warned, and the warning names both counts and no flag.
func TestOversubscriptionWarning(t *testing.T) {
	for _, c := range []struct {
		cores, maxprocs int
		backend         core.Backend
		warn            bool
	}{
		{48, 2, core.BackendSim, false},
		{2, 2, core.BackendLive, false},
		{1, 2, core.BackendLive, false},
		{48, 2, core.BackendLive, true},
		{24, 2, core.BackendNet, true},
	} {
		w := OversubscriptionWarning(c.cores, c.maxprocs, c.backend)
		if !c.warn {
			if w != "" {
				t.Errorf("%d cores, GOMAXPROCS %d, %v: warned %q", c.cores, c.maxprocs, c.backend, w)
			}
			continue
		}
		if !strings.Contains(w, fmt.Sprintf("%d cores", c.cores)) || !strings.Contains(w, fmt.Sprintf("GOMAXPROCS=%d", c.maxprocs)) {
			t.Errorf("%d cores, GOMAXPROCS %d, %v: warning %q does not name both counts", c.cores, c.maxprocs, c.backend, w)
		}
		if strings.Contains(w, " -") {
			t.Errorf("warning %q names a command-line flag: it points at a test, which outlives any flag", w)
		}
	}
}
