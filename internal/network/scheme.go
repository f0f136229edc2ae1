package network

import (
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// SchemeCall is a deferred scheme action in the event wheel, scheduled
// with Network.ScheduleCall. The scheme defines its own Kind space and
// decodes the payload in OnScheduledCall; the network only stores and
// redelivers the struct, which is what lets a snapshot capture pending
// protocol timing (a closure could not be serialized; this can).
type SchemeCall struct {
	// Kind is scheme-private (see core's uppCall* constants), except
	// for the network-defined CallReservationGranted and CallPopupEjected.
	Kind uint8
	// Node is the landing node, when the action targets one.
	Node topology.NodeID
	// A and B are scheme-defined scalar payloads (popup ID, signal
	// kind, VNet...).
	A, B uint64
	// Hop is a scheme-defined small index (signal hop position).
	Hop int32
	// Flit is an optional flit payload (popup latch fills, popup
	// ejection); HasFlit distinguishes "no flit" from a genuine zero value.
	Flit    message.Flit
	HasFlit bool
}

// The Kinds the network defines itself: calls an NI hands straight to
// OnScheduledCall, with Node the NI's node. Scheme-private kinds stay below
// them.
const (
	// CallReservationGranted: a reservation made with NI.RequestReservation
	// is granted, with A the popup ID and B the VNet. A pending reservation
	// is therefore data the NI can snapshot whole, not a callback the scheme
	// would have to rebind after a restore.
	CallReservationGranted uint8 = math.MaxUint8 - iota
	// CallPopupEjected: a popup packet (Packet.Popup) finished reassembly,
	// with A its PopupID and Flit the flit that completed it. Normal packets
	// hand nothing to the scheme when they eject.
	CallPopupEjected
)

// Scheme is a deadlock-freedom approach plugged into the network: UPP
// (internal/core), composable routing (internal/composable), remote
// control (internal/remotectl), or None (fully adaptive with no recovery —
// used to demonstrate that integration-induced deadlocks really form).
//
// A scheme observes and manipulates the datapath through the routers'
// plugin API and the hooks below; the base datapath itself is identical
// across schemes, which is what makes the paper's comparisons meaningful.
// What only one scheme varies is data it installs in Attach rather than a
// hook: a route override (composable), a boundary policy (UPP), a
// boundary-crossing delay and an injection gate (remote control). A
// scheme may also offer `Diagnostic() string`, which the deadlock
// watchdog's StallDiagnostic includes; it is asked for nothing that
// changes a run. Retirement tells the scheme nothing: per-router state is
// read only at awake routers (AwakeRouterIDs), and a router wakes with a
// flit that is not ready before the next cycle, so the first look at it
// finds no stalled head (DESIGN.md §7).
//
// Concurrency contract (parallel kernel): every hook runs on the
// coordinating goroutine, never during a concurrent phase — scheduled
// calls after the deliver phase's join, StartOfCycle between the deliver
// and step phases, EndOfCycle after the retirement phase, the injection
// gate during the sequential NI walk, CallPopupEjected from the commit
// replay of deferred ejections. Hooks may therefore freely
// touch global state. A hook may hand a per-block pass to
// Network.ForEachBlock, whose calls run concurrently on the blocks' workers
// under that function's contract (UPP's detection scan). The route override and the boundary-crossing delay are
// used by the step and deliver phases' workers, so they read only static
// state and the packet. A future scheme must not add router-initiated
// scheme calls to Router.Step without routing them through the block's
// ejection log (see parallel.go and DESIGN.md §9).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Attach wires the scheme to the network before simulation starts:
	// the scheme keeps the network and installs its data (SetRouteOverride,
	// SetBoundaryPolicy, SetCrossingDelay, SetInjectionGate).
	Attach(n *Network)
	// StartOfCycle runs after event delivery and before router allocation:
	// schemes move protocol signals and popup flits here and claim
	// crossbar ports, which normal allocation then respects.
	StartOfCycle(cycle sim.Cycle)
	// EndOfCycle runs after routers and NIs: detection counters and
	// timeout logic live here.
	EndOfCycle(cycle sim.Cycle)
	// OnScheduledCall delivers a SchemeCall the scheme previously passed
	// to Network.ScheduleCall, at its scheduled cycle once the cycle's flits
	// and credits are delivered, and the calls an NI
	// hands straight to the scheme (CallReservationGranted,
	// CallPopupEjected). Schemes that see none keep the no-op default.
	OnScheduledCall(c SchemeCall, cycle sim.Cycle)
	// Snapshot describes the scheme's live protocol state (popup FSMs,
	// tokens, control-plane buffers) as one UPWS section to the codec,
	// which appends it or — on the same scheme attached to an
	// identically-configured network — overwrites it from a snapshot;
	// restore-only work hangs off c.Decoding(). Stateless schemes keep the
	// no-op default. See DESIGN.md §14.
	Snapshot(c *snap.Codec) error
}

// BaseScheme is a no-op Scheme for embedding; concrete schemes override
// the hooks they need.
type BaseScheme struct{}

// Attach is a no-op.
func (BaseScheme) Attach(*Network) {}

// StartOfCycle is a no-op.
func (BaseScheme) StartOfCycle(sim.Cycle) {}

// EndOfCycle is a no-op.
func (BaseScheme) EndOfCycle(sim.Cycle) {}

// OnScheduledCall is a no-op.
func (BaseScheme) OnScheduledCall(SchemeCall, sim.Cycle) {}

// Snapshot walks nothing: the base scheme carries no mutable state.
func (BaseScheme) Snapshot(*snap.Codec) error { return nil }

// None is the recovery-free fully-adaptive configuration: static-binding
// routing with no deadlock handling at all. Integration-induced deadlocks
// form and persist — it exists to demonstrate the problem UPP solves and
// to validate the deadlock watchdog.
type None struct{ BaseScheme }

// Name implements Scheme.
func (None) Name() string { return "none" }
