package network

import (
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// SignalKind classifies a UPP protocol signal transmission for fault
// injection (internal/faults keys its per-kind drop probabilities on it).
type SignalKind uint8

// The three UPP protocol signals.
const (
	SignalReq SignalKind = iota
	SignalAck
	SignalStop
	// NumSignalKinds sizes per-kind probability tables.
	NumSignalKinds = 3
)

// Fate is a fault injector's verdict on one signal transmission: lose it
// on the wire, or deliver it Delay extra cycles late. The zero value is a
// healthy delivery.
type Fate struct {
	Drop  bool
	Delay sim.Cycle
}

// FaultInjector is the runtime fault-injection hook. An implementation
// (internal/faults) must be deterministic in its own seed and stateless
// with respect to call order, so that the three cycle kernels — which may
// consult it a different number of times — stay bit-identical:
//
//   - BeginCycle runs coordinator-side at the top of every Step, before
//     event delivery, and applies scheduled state changes (link flaps).
//   - SignalFate decides drop/delay for one protocol-signal transmission,
//     keyed purely on (kind, popup, hop, cycle).
//   - EjectionStalled reports whether an NI's PE consumption is frozen
//     this cycle, keyed purely on (node, cycle).
type FaultInjector interface {
	BeginCycle(cycle sim.Cycle)
	SignalFate(kind SignalKind, popupID uint64, hop int, cycle sim.Cycle) Fate
	EjectionStalled(node topology.NodeID, cycle sim.Cycle) bool
}

// SetFaultInjector attaches a runtime fault injector. Pass nil to detach.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.faults = fi }

// FaultInjector returns the attached runtime fault injector, or nil.
// Checkpoint code uses it to include stateful injectors (the
// reconfiguration engine implements SnapshotExtra) in UPWS snapshots.
func (n *Network) FaultInjector() FaultInjector { return n.faults }

// SignalFate consults the attached injector for one protocol-signal
// transmission; without an injector every signal is delivered healthy.
// Drops and delays are counted, and delays are clamped below the event
// wheel horizon so the scheduled arrival always fits.
func (n *Network) SignalFate(kind SignalKind, popupID uint64, hop int, cycle sim.Cycle) Fate {
	if n.faults == nil {
		return Fate{}
	}
	f := n.faults.SignalFate(kind, popupID, hop, cycle)
	if f.Drop {
		f.Delay = 0
		n.Stats.SignalsDropped++
		return f
	}
	if f.Delay > 0 {
		if max := sim.Cycle(wheelSize - 2 - router.LinkDelay); f.Delay > max {
			f.Delay = max
		}
		n.Stats.SignalsDelayed++
	}
	return f
}

// ejectionStalled reports an injected PE stall at node for this cycle.
func (n *Network) ejectionStalled(node topology.NodeID, cycle sim.Cycle) bool {
	return n.faults != nil && n.faults.EjectionStalled(node, cycle)
}

// beginCycleFaults lets the injector apply scheduled transitions. Called
// at the top of every kernel's step, on the coordinating goroutine.
func (n *Network) beginCycleFaults(cycle sim.Cycle) {
	if n.faults != nil {
		n.faults.BeginCycle(cycle)
	}
}

// SetLinkDown applies or clears a transient outage on l, updating the
// down-port masks of both endpoint routers. Injectors call it from
// BeginCycle; it is idempotent per state.
func (n *Network) SetLinkDown(l *topology.Link, down bool) {
	if l.Down == down {
		return
	}
	l.Down = down
	n.Routers[l.A].SetPortDown(l.APort, down)
	n.Routers[l.B].SetPortDown(l.BPort, down)
	if down {
		n.Stats.LinkFlaps++
	}
}
