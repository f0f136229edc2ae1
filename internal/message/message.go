// Package message defines the units that travel through the network:
// packets, the flits they are segmented into, virtual networks, and the
// field widths of the three UPP protocol signals (UPP_req, UPP_ack,
// UPP_stop) in the paper's Fig. 4.
package message

import (
	"fmt"

	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// VNet is a virtual network. The MESI directory protocol used for
// evaluation needs three (Table II): requests, forwards, responses.
// Protocol deadlocks are handled by this separation, exactly as the paper
// assumes; UPP targets routing deadlocks.
type VNet int8

// The three virtual networks of the MESI protocol.
const (
	VNetRequest  VNet = 0
	VNetForward  VNet = 1
	VNetResponse VNet = 2
	// NumVNets is the virtual network count (Table II).
	NumVNets = 3
)

// String names the virtual network.
func (v VNet) String() string {
	switch v {
	case VNetRequest:
		return "req"
	case VNetForward:
		return "fwd"
	case VNetResponse:
		return "resp"
	}
	return fmt.Sprintf("vnet(%d)", int8(v))
}

// Packet sizes used throughout the evaluation (Table II).
const (
	// ControlPacketFlits is the size of a control packet.
	ControlPacketFlits = 1
	// DataPacketFlits is the size of a data packet (cache line).
	DataPacketFlits = 5
)

// Class tags the protocol-level meaning of a packet. Synthetic traffic
// uses ClassSyntheticCtrl/Data; the coherence substrate uses the MESI
// message classes.
type Class int8

// Packet classes.
const (
	ClassSyntheticCtrl Class = iota
	ClassSyntheticData
	ClassGetS    // read request (core -> directory), VNet 0, control
	ClassGetM    // write request (core -> directory), VNet 0, control
	ClassPutM    // writeback (core -> directory), VNet 0, data
	ClassFwdGetS // forward to owner, VNet 1, control
	ClassFwdGetM // forward/invalidate to owner or sharers, VNet 1, control
	ClassInv     // invalidation to a sharer, VNet 1, control
	ClassData    // data response, VNet 2, data
	ClassDataAck // control response (ack/grant), VNet 2, control
)

// Packet is a multi-flit message in flight. Routers and NIs share one
// Packet value per message; flits carry a pointer to it.
//
// Field order is layout: everything a router or a route function reads per
// hop sits in the first 64 bytes, so a hop touches one cache line of the
// header; what only the endpoints, UPP's recovery and the pool read comes
// after (TestLayoutPins holds the split).
type Packet struct {
	Src topology.NodeID
	Dst topology.NodeID
	// Size is the packet length in flits (>= 1).
	Size int

	// EgressBoundary is the boundary router through which this packet
	// leaves its source chiplet (chosen at injection; Sec. V-D static
	// binding, or the composable baseline's restricted choice).
	// InvalidNode for intra-chiplet and interposer-sourced packets.
	EgressBoundary topology.NodeID
	// IngressInterposer is the interposer router whose up link leads to
	// the boundary router bound to the destination chiplet router.
	// InvalidNode if the destination is on the interposer.
	IngressInterposer topology.NodeID

	// Epoch is the routing epoch the packet's route lookups are pinned
	// to. During a dynamic reconfiguration the network keeps both the old
	// and the new routing tables live; packets stamped with an older epoch
	// keep using the table they were injected under until they deliver or
	// are migrated onto the current table (see internal/reconfig).
	Epoch uint32

	// DstChiplet caches the destination's chiplet index (or
	// topology.InterposerChiplet); routers use it to tell whether a popup
	// flit is inside the destination chiplet (circuit territory) or still
	// upstream flowing normally.
	DstChiplet int16
	// DownPhase and RouteLayer carry per-layer up*/down* routing state in
	// the head flit: once a packet takes a "down" tree link it may not go
	// "up" again within the same layer. RouteLayer tracks the layer the
	// packet was last routed in so the phase resets after a vertical hop.
	// LayerEntryX records the column where the packet entered its current
	// layer (odd-even adaptive routing's source-column rule).
	RouteLayer  int16
	LayerEntryX int16
	DownPhase   bool

	VNet  VNet
	Class Class
	// Popup is set while the packet is being popped up by UPP: its flits
	// bypass buffers via the circuit installed by the UPP_req and take
	// absolute switch priority (Sec. V-C).
	Popup bool

	ID uint64

	// BirthCycle is when the message entered the NI injection queue;
	// InjectCycle when its head flit entered the network; EjectCycle when
	// its tail flit was ejected at the destination NI. Queueing latency =
	// Inject-Birth, network latency = Eject-Inject (the split of Fig. 7's
	// source data).
	BirthCycle  sim.Cycle
	InjectCycle sim.Cycle
	EjectCycle  sim.Cycle

	// PopupID identifies the popup instance that claimed this packet.
	PopupID uint64
	// PopupResUsed marks that the packet consumed its UPP ejection-queue
	// reservation (set by the NI on the first popup-mode flit it accepts;
	// the head may already have ejected normally before the popup began).
	PopupResUsed bool

	// Coherence bookkeeping (zero for synthetic traffic).
	Addr uint64
	Txn  uint64
	// AuxNode carries the protocol-level third party (e.g. the original
	// requester inside a forward); AuxCount carries small counts (e.g.
	// expected invalidation acks).
	AuxNode  topology.NodeID
	AuxCount int32

	// gen counts this packet's pool incarnations. Pool.Put bumps it, so a
	// holder that snapshotted Generation() can later detect that its
	// pointer now names a recycled packet (the ABA guard for pooled
	// reuse). pooled marks packets owned by a Pool — foreign packets
	// (tests and examples build them with &Packet{}) pass through Put
	// untouched and are never recycled. released marks a packet currently
	// sitting in the freelist; any simulator component seeing a released
	// packet in flight is a use-after-free.
	gen      uint32
	pooled   bool
	released bool
}

// Generation returns the packet's pool incarnation counter. It changes
// every time the packet is released, so comparing a snapshot against the
// current value detects reuse-after-release.
func (p *Packet) Generation() uint32 { return p.gen }

// Pooled reports whether the packet is owned by a Pool.
func (p *Packet) Pooled() bool { return p.pooled }

// Released reports whether the packet is currently in a freelist. A
// released packet must not be referenced by live simulation state.
func (p *Packet) Released() bool { return p.released }

// Flit is one link-width unit of a packet. Seq 0 is the head flit (it
// carries the routing information); Seq Size-1 is the tail.
type Flit struct {
	Pkt *Packet
	Seq int32
}

// IsHead reports whether f is the packet's head flit.
func (f Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether f is the packet's tail flit. A single-flit packet
// is both head and tail.
func (f Flit) IsTail() bool { return int(f.Seq) == f.Pkt.Size-1 }

// String formats the flit for debugging.
func (f Flit) String() string {
	kind := "body"
	switch {
	case f.IsHead() && f.IsTail():
		kind = "head+tail"
	case f.IsHead():
		kind = "head"
	case f.IsTail():
		kind = "tail"
	}
	return fmt.Sprintf("pkt%d[%d/%d] %s %s %d->%d", f.Pkt.ID, f.Seq, f.Pkt.Size, kind, f.Pkt.VNet, f.Pkt.Src, f.Pkt.Dst)
}
