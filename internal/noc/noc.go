// Package noc models the interconnect and timing characteristics of the
// target platforms of the TM2C paper: the Intel Single-chip Cloud Computer
// (SCC) under its five performance settings (§5.1), and a 48-core AMD
// Opteron multi-core running a Barrelfish-style cache-line message-passing
// library (§7).
//
// A Platform converts logical actions (send a message of n bytes from core a
// to core b, perform c cycles of compute, access shared memory) into virtual
// durations for the simulation kernel. The constants are calibrated so that
// the round-trip message latency curve reproduces the endpoints the paper
// reports in Figure 8(a): ~5.1 µs for 2 cores and ~12.4 µs for 48 cores on
// the SCC's default setting.
//
// The dominant scaling mechanism, as the paper explains, is software
// polling: "a core has to repeatedly poll a flag for any other core to be
// able to detect any incoming messages", so receive cost grows linearly with
// the number of peers a core listens to. PollPerPeer captures that; PerHop
// captures the 2D-mesh distance.
package noc

import (
	"fmt"
	"time"
)

// Topology selects how inter-core hop distance is computed.
type Topology int

const (
	// Mesh2D is the SCC's 6x4 tile mesh with XY routing (2 cores/tile).
	Mesh2D Topology = iota
	// Sockets is a multi-socket multi-core: 0 hops within a socket, 1 hop
	// (a HyperTransport-like link) between sockets.
	Sockets
)

// Setting is one row of the SCC performance-settings table from §5.1 of the
// paper: frequencies in MHz for the tiles (cores), the mesh, and the DRAM.
type Setting struct {
	ID   int
	Tile int // core frequency, MHz
	Mesh int // interconnect frequency, MHz
	DRAM int // memory frequency, MHz
}

// Settings is the SCC performance-settings table (§5.1). Setting 0 is the
// Intel-recommended default used for the paper's measurements; setting 1 is
// the fastest ("SCC800" in §7).
var Settings = [5]Setting{
	{ID: 0, Tile: 533, Mesh: 800, DRAM: 800},
	{ID: 1, Tile: 800, Mesh: 1600, DRAM: 1066},
	{ID: 2, Tile: 800, Mesh: 1600, DRAM: 800},
	{ID: 3, Tile: 800, Mesh: 800, DRAM: 1066},
	{ID: 4, Tile: 800, Mesh: 800, DRAM: 800},
}

// Platform describes the timing model of one machine.
type Platform struct {
	Name     string
	Topology Topology

	// Geometry.
	MeshW, MeshH int // tiles (Mesh2D) or sockets laid out in a row (Sockets)
	CoresPerUnit int // cores per tile / per socket

	// ComputeScale multiplies nominal compute durations. Nominal durations
	// throughout the repository are defined for the SCC's 533 MHz P54C
	// cores, so ComputeScale 1.0 = SCC setting 0 and smaller is faster.
	ComputeScale float64

	// One-way message latency components.
	SendOverhead time.Duration // sender-side software cost
	RecvOverhead time.Duration // receiver-side software cost (one peer)
	PerHop       time.Duration // mesh/link traversal per hop
	PollPerPeer  time.Duration // extra receiver cost per additional polled peer
	PerByte      time.Duration // payload serialization/copy cost per byte

	// Shared-memory access.
	MemBase    time.Duration // uncontended access latency
	MemPerHop  time.Duration // extra latency per hop to the memory controller
	MemService time.Duration // controller occupancy per access (queueing)
	NumMCs     int           // memory controllers

	// Remote atomic (test-and-set / status CAS) base cost; the hardware
	// register is addressed directly, with no software polling.
	AtomicBase time.Duration
}

// SCC returns the SCC platform under performance setting id (0..4).
// Constants are defined at setting 0 and scaled by the setting's
// frequencies: core-side software costs scale with the tile clock, hop
// latency with the mesh clock, and memory latency with the DRAM clock.
func SCC(id int) Platform {
	if id < 0 || id >= len(Settings) {
		panic(fmt.Sprintf("noc: invalid SCC setting %d", id))
	}
	s := Settings[id]
	tile := 533.0 / float64(s.Tile)
	mesh := 800.0 / float64(s.Mesh)
	dram := 800.0 / float64(s.DRAM)
	name := "SCC"
	if id != 0 {
		name = fmt.Sprintf("SCC(setting %d)", id)
	}
	if id == 1 {
		name = "SCC800"
	}
	return Platform{
		Name:         name,
		Topology:     Mesh2D,
		MeshW:        6,
		MeshH:        4,
		CoresPerUnit: 2,
		ComputeScale: float64(tile),
		SendOverhead: scaleDur(1300*time.Nanosecond, tile),
		RecvOverhead: scaleDur(1250*time.Nanosecond, tile),
		PerHop:       scaleDur(250*time.Nanosecond, mesh),
		PollPerPeer:  scaleDur(124*time.Nanosecond, tile),
		PerByte:      scaleDur(2*time.Nanosecond, mesh),
		MemBase:      scaleDur(400*time.Nanosecond, dram),
		MemPerHop:    scaleDur(30*time.Nanosecond, mesh),
		MemService:   scaleDur(55*time.Nanosecond, dram),
		NumMCs:       4,
		AtomicBase:   scaleDur(200*time.Nanosecond, mesh),
	}
}

// Opteron returns the 48-core (4 sockets x 12 cores) AMD Opteron platform of
// §7: ~2.6x faster cores than the SCC at 800 MHz, hardware cache coherence
// (so very fast shared-memory access on the hot paths) but a slower
// software message-passing channel built from cache lines.
func Opteron() Platform {
	return Platform{
		Name:         "Opteron",
		Topology:     Sockets,
		MeshW:        4,
		MeshH:        1,
		CoresPerUnit: 12,
		ComputeScale: 533.0 / 2100.0,
		SendOverhead: 1000 * time.Nanosecond,
		RecvOverhead: 1000 * time.Nanosecond,
		PerHop:       300 * time.Nanosecond,
		PollPerPeer:  115 * time.Nanosecond,
		PerByte:      1 * time.Nanosecond,
		MemBase:      60 * time.Nanosecond, // caches absorb hot-spot accesses
		MemPerHop:    20 * time.Nanosecond,
		MemService:   8 * time.Nanosecond,
		NumMCs:       4,
		AtomicBase:   120 * time.Nanosecond,
	}
}

// Mesh returns a generic 2D-mesh platform of w x h tiles with
// coresPerTile cores each, using the SCC default setting's per-component
// timings and one memory controller per mesh corner plus edge midpoints
// (8 controllers). It is the scale-out platform for the million-object
// benchmarks: the SCC's geometry tops out at 48 cores, while the timing
// model itself is geometry-independent.
func Mesh(w, h, coresPerTile int) Platform {
	if w < 2 || h < 2 || coresPerTile < 1 {
		panic(fmt.Sprintf("noc: invalid mesh geometry %dx%dx%d", w, h, coresPerTile))
	}
	pl := SCC(0)
	pl.Name = fmt.Sprintf("Mesh%dx%dx%d", w, h, coresPerTile)
	pl.MeshW = w
	pl.MeshH = h
	pl.CoresPerUnit = coresPerTile
	pl.NumMCs = 8
	return pl
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// NumCores returns the total number of cores on the platform.
func (pl *Platform) NumCores() int { return pl.MeshW * pl.MeshH * pl.CoresPerUnit }

// unitOf returns the tile/socket index of a core.
func (pl *Platform) unitOf(core int) int { return core / pl.CoresPerUnit }

// UnitCoord returns the (x, y) mesh coordinate of a core's tile. For the
// Sockets topology y is always 0.
func (pl *Platform) UnitCoord(core int) (x, y int) {
	u := pl.unitOf(core)
	return u % pl.MeshW, u / pl.MeshW
}

// Hops returns the routing distance between two cores: Manhattan distance
// between tiles under XY routing on the mesh, or 0/1 for same/different
// socket.
func (pl *Platform) Hops(a, b int) int {
	ua, ub := pl.unitOf(a), pl.unitOf(b)
	if ua == ub {
		return 0
	}
	switch pl.Topology {
	case Sockets:
		return 1
	default:
		ax, ay := ua%pl.MeshW, ua/pl.MeshW
		bx, by := ub%pl.MeshW, ub/pl.MeshW
		return abs(ax-bx) + abs(ay-by)
	}
}

// MsgDelay returns the one-way latency of a message of payloadBytes from src
// to dst, where the receiver polls recvPeers potential senders (>= 1).
func (pl *Platform) MsgDelay(src, dst, payloadBytes, recvPeers int) time.Duration {
	if recvPeers < 1 {
		recvPeers = 1
	}
	d := pl.SendOverhead + pl.RecvOverhead
	d += time.Duration(pl.Hops(src, dst)) * pl.PerHop
	d += time.Duration(recvPeers-1) * pl.PollPerPeer
	d += time.Duration(payloadBytes) * pl.PerByte
	return d
}

// BatchDelay returns the one-way latency of a coalesced wire message
// carrying payloads protocol payloads totaling payloadBytes, from src to
// dst, where the receiver polls recvPeers potential senders. The fixed
// per-message software costs — SendOverhead, RecvOverhead, hop traversal,
// per-peer polling — are charged ONCE for the whole envelope; only the
// payload bytes (each payload's framing included in its own byte count)
// scale with the batch. This is the amortization the paper's numbers make
// worthwhile: on the SCC the fixed costs are microseconds while a payload
// byte is nanoseconds, so k coalesced payloads cost barely more than one.
// A single-payload batch costs exactly MsgDelay.
func (pl *Platform) BatchDelay(src, dst, payloadBytes, payloads, recvPeers int) time.Duration {
	if payloads < 1 {
		panic(fmt.Sprintf("noc: batch of %d payloads", payloads))
	}
	return pl.MsgDelay(src, dst, payloadBytes, recvPeers)
}

// Compute scales a nominal (SCC-533) compute duration to this platform.
func (pl *Platform) Compute(d time.Duration) time.Duration {
	return time.Duration(float64(d) * pl.ComputeScale)
}

// MCCount returns the number of memory controllers (at least 1).
func (pl *Platform) MCCount() int {
	if pl.NumMCs < 1 {
		return 1
	}
	return pl.NumMCs
}

// mcCoord places memory controllers at the mesh corners (the first four,
// approximating the SCC's edge-mounted DDR3 controllers) and then at the
// edge midpoints (controllers 4-7 on the larger Mesh platforms).
func (pl *Platform) mcCoord(mc int) (x, y int) {
	switch mc % 8 {
	case 0:
		return 0, 0
	case 1:
		return pl.MeshW - 1, 0
	case 2:
		return 0, pl.MeshH - 1
	case 3:
		return pl.MeshW - 1, pl.MeshH - 1
	case 4:
		return pl.MeshW / 2, 0
	case 5:
		return pl.MeshW / 2, pl.MeshH - 1
	case 6:
		return 0, pl.MeshH / 2
	default:
		return pl.MeshW - 1, pl.MeshH / 2
	}
}

// ClusterOf returns the locality cluster of a core: the mesh quadrant on
// Mesh2D (a proxy for NUMA-style distance domains — cores in the same
// quadrant are a few hops apart, opposite quadrants pay the full mesh
// diameter), or the socket under the Sockets topology. Clusters are the
// granularity of the placement directory's thread/data co-mapping:
// deliberately coarser than a tile, so every cluster contains DTM service
// nodes a hot stripe can migrate to.
func (pl *Platform) ClusterOf(core int) int {
	if pl.Topology == Sockets {
		return pl.unitOf(core)
	}
	x, y := pl.UnitCoord(core)
	cx, cy := 0, 0
	if x >= (pl.MeshW+1)/2 {
		cx = 1
	}
	if y >= (pl.MeshH+1)/2 {
		cy = 1
	}
	return cy*2 + cx
}

// NumClusters returns how many locality clusters ClusterOf partitions the
// platform into.
func (pl *Platform) NumClusters() int {
	if pl.Topology == Sockets {
		return pl.MeshW * pl.MeshH
	}
	return 4
}

// MemHops returns the routing distance from a core to a memory controller.
func (pl *Platform) MemHops(core, mc int) int {
	if pl.Topology == Sockets {
		// Socket-local controller or one HT hop away.
		if pl.unitOf(core)%pl.MCCount() == mc%pl.MCCount() {
			return 0
		}
		return 1
	}
	cx, cy := pl.UnitCoord(core)
	mx, my := pl.mcCoord(mc)
	return abs(cx-mx) + abs(cy-my)
}

// MemDelay returns the uncontended latency of one shared-memory access from
// core through controller mc. Controller queueing is layered on top by
// internal/mem.
func (pl *Platform) MemDelay(core, mc int) time.Duration {
	return pl.MemBase + time.Duration(pl.MemHops(core, mc))*pl.MemPerHop
}

// AtomicDelay returns the round-trip latency of a remote atomic operation
// (test-and-set or status CAS) on a register hosted by core dst.
func (pl *Platform) AtomicDelay(src, dst int) time.Duration {
	return pl.AtomicBase + 2*time.Duration(pl.Hops(src, dst))*pl.PerHop
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
