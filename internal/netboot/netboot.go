// Package netboot bootstraps the cross-process net backend for the CLI
// front-ends (tm2c-bench, tm2c-sim): BindFlags registers the
// -groups/-rank/-listen/-peers flags and returns the resolver of this
// process's place in the process group; in the default fork mode the Plan
// then launches the worker ranks as re-execs of the current binary over
// unix sockets in a private temp dir.
//
// Three ways into a net-backend run:
//
//   - Fork mode (default): the invoked process is rank 0; the resolver
//     allocates unix-socket addresses and Fork starts ranks 1..N-1 as copies of this
//     process with the topology in TM2C_NET_* environment variables. The
//     children re-parse the identical command line, so every rank constructs
//     the identical deterministic sequence of systems — the property the
//     backend's replicated-construction model requires.
//
//   - Forked child: TM2C_NET_RANK/TM2C_NET_PEERS are set; the resolver
//     returns that topology.
//
//   - Standalone (-peers, for multi-host or manual launches): the full
//     rank-ordered address list is given explicitly, -rank selects this
//     process's slot, and the optional -listen overrides the local bind
//     address (e.g. 0.0.0.0:port while the peers dial a routable IP).
package netboot

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
)

const (
	envRank  = "TM2C_NET_RANK"
	envPeers = "TM2C_NET_PEERS"
)

// Plan is one process's place in a net-backend run, plus the children a
// fork-mode parent spawned.
type Plan struct {
	Ranks int
	Rank  int
	Addrs []string

	children []*exec.Cmd
	tmpDir   string
}

// BindFlags registers the net-backend process-group flags (-groups -rank
// -listen -peers) on fs and returns the function that resolves them into
// this process's Plan. Call it only after fs has been parsed, and only for
// a net-backend run: resolving allocates the fork-mode socket directory.
func BindFlags(fs *flag.FlagSet) func() (*Plan, error) {
	groups := fs.Int("groups", 2, "net backend: number of OS processes (forked from this one by default)")
	rank := fs.Int("rank", 0, "net backend: this process's rank when launched standalone with -peers")
	listen := fs.String("listen", "", "net backend: override this rank's bind address in the -peers list")
	peers := fs.String("peers", "", "net backend: full rank-ordered address list (unix:<path> or host:port) for standalone launches; empty forks -groups local workers over unix sockets")
	return func() (*Plan, error) { return resolve(*groups, *rank, *listen, *peers) }
}

// resolve builds the topology plan from the flag values. groups is the
// process count for fork mode; rank/listen/peers configure standalone mode
// (peers empty selects fork mode).
func resolve(groups, rank int, listen, peers string) (*Plan, error) {
	if r := os.Getenv(envRank); r != "" {
		rk, err := strconv.Atoi(r)
		if err != nil {
			return nil, fmt.Errorf("netboot: bad %s=%q", envRank, r)
		}
		addrs := strings.Split(os.Getenv(envPeers), ",")
		if rk < 0 || rk >= len(addrs) {
			return nil, fmt.Errorf("netboot: %s=%d out of range for %d peers", envRank, rk, len(addrs))
		}
		return &Plan{Ranks: len(addrs), Rank: rk, Addrs: addrs}, nil
	}
	if peers != "" {
		addrs := strings.Split(peers, ",")
		if len(addrs) < 2 {
			return nil, fmt.Errorf("netboot: -peers needs at least 2 rank-ordered addresses")
		}
		if rank < 0 || rank >= len(addrs) {
			return nil, fmt.Errorf("netboot: -rank %d out of range for %d peers", rank, len(addrs))
		}
		if listen != "" {
			addrs[rank] = listen
		}
		return &Plan{Ranks: len(addrs), Rank: rank, Addrs: addrs}, nil
	}
	if groups < 2 {
		return nil, fmt.Errorf("netboot: the net backend needs -groups >= 2 processes (or an explicit -peers list)")
	}
	dir, err := os.MkdirTemp("", "tm2c-net-")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, groups)
	for r := range addrs {
		addrs[r] = "unix:" + filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
	}
	return &Plan{Ranks: groups, Rank: 0, Addrs: addrs, tmpDir: dir}, nil
}

// Fork launches ranks 1..Ranks-1 as re-execs of this binary with the
// topology in the environment. A no-op for children and standalone ranks.
// Children inherit stderr; their stdout is discarded — rank 0's report is
// the authoritative one.
func (p *Plan) Fork() error {
	if p.tmpDir == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 1; r < p.Ranks; r++ {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envPeers+"="+strings.Join(p.Addrs, ","),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			p.Wait() // reap whatever already started
			return fmt.Errorf("netboot: fork rank %d: %v", r, err)
		}
		p.children = append(p.children, cmd)
	}
	return nil
}

// Wait reaps the forked children and removes the socket dir; the first
// child failure is returned. A no-op without children.
func (p *Plan) Wait() error {
	var first error
	for _, c := range p.children {
		if err := c.Wait(); err != nil && first == nil {
			first = fmt.Errorf("netboot: net worker rank (pid %d) failed: %v", c.Process.Pid, err)
		}
	}
	p.children = nil
	if p.tmpDir != "" {
		os.RemoveAll(p.tmpDir)
		p.tmpDir = ""
	}
	return first
}

// NetConfig returns this process's Config.Net. Session -1 lets the backend
// draw per-process session numbers, which stay aligned across ranks because
// every rank constructs the identical sequence of systems.
func (p *Plan) NetConfig() *core.NetConfig {
	return &core.NetConfig{
		Ranks:   p.Ranks,
		Rank:    p.Rank,
		Addrs:   append([]string(nil), p.Addrs...),
		Session: -1,
	}
}

// OversubscriptionWarning returns a warning (or "") for live/net runs whose
// worker-thread demand exceeds the Go scheduler's parallelism: oversubscribed
// runs show zero-commit windows while descheduled cores hold locks. cores is
// the largest per-process core count the run will spawn.
func OversubscriptionWarning(cores, maxprocs int, backend core.Backend) string {
	if backend != core.BackendLive && backend != core.BackendNet {
		return ""
	}
	if cores <= maxprocs {
		return ""
	}
	return fmt.Sprintf(
		"warning: %d cores on the %s backend exceed GOMAXPROCS=%d; expect zero-commit oversubscription windows (inspect them with tm2c-sim -backend live -snapshot <file>)",
		cores, backend, maxprocs)
}
