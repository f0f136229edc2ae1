package network

import (
	"fmt"
	"strings"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// StallDiagnostic is the deadlock watchdog's structured report, returned
// by Drain when no packet ejects for the stall limit. It captures
// everything needed to understand the wedge without re-running: where the
// flits sit (per-VNet counts and the occupancy render), what the vertical
// links see (the quantity UPP's detection watches), and the attached
// scheme's live protocol state via its optional Diagnostic method. All
// fields derive purely from simulation state, so fixed-seed runs produce
// bit-identical diagnostics across the three cycle kernels.
type StallDiagnostic struct {
	Cycle      sim.Cycle
	StallLimit sim.Cycle
	InFlight   int
	// BufferedFlits counts flits held in router VC buffers, per VNet.
	BufferedFlits [message.NumVNets]int
	// NIPending sums in-flight work at the NIs (queued, streaming,
	// reassembling, awaiting consumption).
	NIPending int
	// Occupancy and UpPorts are the render.go snapshots.
	Occupancy string
	UpPorts   string
	// SchemeName/SchemeState are the attached scheme and the output of its
	// optional `Diagnostic() string` method (live popup FSMs for UPP; empty
	// for schemes without one or with no protocol state).
	SchemeName  string
	SchemeState string
	// RouteEpoch is the current routing epoch; ReconfigPending marks a
	// stall with a reconfiguration transition in progress (old tables
	// still installed, injection held, or links fenced), with
	// OldEpochLive the packets still pinning the old tables — the first
	// things to check when a stall coincides with a reconfiguration.
	RouteEpoch      uint32
	ReconfigPending bool
	OldEpochLive    int64
}

// Error implements error. The first line keeps the historical message
// (tests and callers match on "no ejection"); the rest is the dump.
func (d *StallDiagnostic) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network: no ejection for %d cycles with %d packets in flight (deadlock?)",
		d.StallLimit, d.InFlight)
	if d.ReconfigPending {
		fmt.Fprintf(&b, " [reconfig pending: epoch %d, old-epoch live %d]", d.RouteEpoch, d.OldEpochLive)
	}
	fmt.Fprintf(&b, "\nstalled at cycle %d; NI pending %d; buffered flits per vnet:", d.Cycle, d.NIPending)
	for v := 0; v < message.NumVNets; v++ {
		fmt.Fprintf(&b, " %s=%d", message.VNet(v), d.BufferedFlits[v])
	}
	b.WriteByte('\n')
	b.WriteString(d.Occupancy)
	b.WriteString(d.UpPorts)
	if d.SchemeState != "" {
		fmt.Fprintf(&b, "scheme %s:\n%s", d.SchemeName, d.SchemeState)
	}
	return b.String()
}

// stallDiagnostic assembles the watchdog report for the current state.
func (n *Network) stallDiagnostic(stallLimit sim.Cycle) *StallDiagnostic {
	d := &StallDiagnostic{
		Cycle:           n.cycle,
		StallLimit:      stallLimit,
		InFlight:        n.InFlight(),
		Occupancy:       n.RenderOccupancy(),
		UpPorts:         n.RenderUpPorts(),
		SchemeName:      n.scheme.Name(),
		RouteEpoch:      n.routeEpoch,
		ReconfigPending: n.prevHier != nil || n.injectHold || n.fencedLinks > 0,
		OldEpochLive:    n.OldEpochLive(),
	}
	if sd, ok := n.scheme.(interface{ Diagnostic() string }); ok {
		d.SchemeState = sd.Diagnostic()
	}
	nvc := n.Cfg.Router.NumVCs()
	for _, r := range n.Routers {
		for pi := range r.Node.Ports {
			for vi := 0; vi < nvc; vi++ {
				vc := r.VCAt(topology.PortID(pi), vi)
				if l := vc.Len(); l > 0 {
					d.BufferedFlits[n.Cfg.Router.VCVNet(vi)] += l
				}
			}
		}
	}
	for _, ni := range n.NIs {
		d.NIPending += ni.Pending()
	}
	return d
}
