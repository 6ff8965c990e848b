package netboot

import (
	"flag"
	"io"
	"reflect"
	"testing"
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
