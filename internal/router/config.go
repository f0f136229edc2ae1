// Package router models the router microarchitecture of the chiplet NoC:
// per-VNet virtual channels with credit-based wormhole flow control, a
// 3-stage pipeline (buffer write + route computation, switch allocation +
// VC selection, switch traversal) with 1-cycle link traversal, and
// separable round-robin switch allocation (Table II, Fig. 5). There is one
// router type, Router; its arch (iq, oq, voq) is fixed at construction and
// selects where the queues sit and how inputs are matched to outputs.
//
// Router deliberately exposes its state (exported fields, front-flit
// peeking) and a manipulation API (forced dequeues, output claiming,
// out-of-band VC sends) because the deadlock-freedom schemes of the paper
// — UPP's popup circuit, remote control's boundary buffers — are
// implemented as plugins layered on this datapath rather than as special
// cases inside it.
package router

import (
	"fmt"
	"math"

	"uppnoc/internal/message"
)

// PipelineDepth is the router pipeline length in cycles — buffer write +
// route computation, switch allocation + VC selection, switch traversal
// (Fig. 5). The network's event wheel must cover PipelineDepth plus
// LinkDelay; the network package asserts it at compile time.
const PipelineDepth = 3

// LinkDelay is the link traversal latency in cycles of every link, mesh,
// vertical and inter-tile alike (Table II: 1).
const LinkDelay = 1

// maxBufferDepth is the largest BufferDepth the int16 credit counters
// (Out.Credits, the NI's copy) can hold.
const maxBufferDepth = math.MaxInt16

// maxVCsPerVNet bounds VCsPerVNet so hot-path scratch arrays (the VC
// selection candidate list in grant) can be fixed-size instead of
// heap-allocated per head flit. The paper evaluates 1 and 4.
const maxVCsPerVNet = 16

// Config fixes the microarchitectural parameters shared by every router.
type Config struct {
	// VCsPerVNet is the number of virtual channels per virtual network
	// (Table II: 1 or 4).
	VCsPerVNet int
	// BufferDepth is the flit capacity of each VC buffer (Table II: 4).
	BufferDepth int
	// VCT selects virtual cut-through flow control: a head flit advances
	// only when the downstream VC can hold the whole packet, so a packet
	// never straddles a buffer boundary mid-allocation. The paper's
	// evaluation uses wormhole (Table II); UPP supports both (Table I's
	// flow-control-modularity attribute). VCT requires BufferDepth >=
	// the largest packet size.
	VCT bool
}

// DefaultConfig returns the paper's 1-VC-per-VNet configuration.
func DefaultConfig() Config {
	return Config{VCsPerVNet: 1, BufferDepth: 4}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCsPerVNet < 1:
		return fmt.Errorf("router: VCsPerVNet must be >= 1")
	case c.VCsPerVNet > maxVCsPerVNet:
		return fmt.Errorf("router: VCsPerVNet must be <= %d", maxVCsPerVNet)
	case c.BufferDepth < 1:
		return fmt.Errorf("router: BufferDepth must be >= 1")
	case c.BufferDepth > maxBufferDepth:
		return fmt.Errorf("router: BufferDepth must be <= %d (the credit counters are 16-bit)", maxBufferDepth)
	case c.VCT && c.BufferDepth < message.DataPacketFlits:
		return fmt.Errorf("router: virtual cut-through needs BufferDepth >= %d (largest packet)", message.DataPacketFlits)
	}
	return nil
}

// NumVCs returns the total VC count per input port.
func (c Config) NumVCs() int { return message.NumVNets * c.VCsPerVNet }

// VCIndex maps (vnet, k) to a dense VC index.
func (c Config) VCIndex(v message.VNet, k int) int { return int(v)*c.VCsPerVNet + k }

// VCVNet recovers the virtual network of a dense VC index.
func (c Config) VCVNet(vc int) message.VNet { return message.VNet(vc / c.VCsPerVNet) }

// Arch names for New, network.Config.RouterArch and the binaries'
// -router flags.
const (
	// ArchIQ is the paper's 3-stage input-queued wormhole router — the
	// default, and the reference the golden tests pin bit-identically.
	ArchIQ = "iq"
	// ArchOQ is the output-queued variant: input VCs are shallower and
	// the freed slots form per-output staging FIFOs that the crossbar
	// fills with full speedup, eliminating switch-level head-of-line
	// blocking (arXiv 2303.10526's OQ router class).
	ArchOQ = "oq"
	// ArchVOQ is the virtual-output-queued variant: buffering is
	// identical to iq, but allocation considers every (input port, VC)
	// head per output — with the ejection port served first, the cheap
	// consumption-first avoidance lever of arXiv 2303.10526 — instead of
	// nominating a single VC per input port.
	ArchVOQ = "voq"
)

// BufferBudget returns the total flit-slot budget per router port that
// every microarchitecture must hit: NumVCs input VCs of BufferDepth flits
// each. Variants that buffer at outputs carve their staging capacity out
// of this same budget (LayoutFor), so scheme × arch comparisons are never
// apples-to-oranges on storage.
func BufferBudget(cfg Config) int { return cfg.NumVCs() * cfg.BufferDepth }

// BufferLayout describes how one microarchitecture splits BufferBudget
// between input VCs and output staging.
type BufferLayout struct {
	Arch string
	// InputDepth is the per-input-VC buffer depth (what credits count).
	InputDepth int
	// StageSlots is the per-output-port staging FIFO capacity; zero for
	// variants without output queues.
	StageSlots int
}

// TotalPerPort returns the layout's flit slots per port; equal to
// BufferBudget(cfg) for every valid layout.
func (l BufferLayout) TotalPerPort(cfg Config) int {
	return cfg.NumVCs()*l.InputDepth + l.StageSlots
}

// LayoutFor returns arch's split of the equal buffer budget, or an error
// for unknown or unsupportable combinations.
func LayoutFor(arch string, cfg Config) (BufferLayout, error) {
	switch arch {
	case ArchIQ, ArchVOQ:
		// Both keep the full budget at the inputs; voq differs only in
		// allocation.
		return BufferLayout{Arch: arch, InputDepth: cfg.BufferDepth}, nil
	case ArchOQ:
		if cfg.VCT {
			return BufferLayout{}, fmt.Errorf("router: arch %q does not support virtual cut-through (whole-packet staging would double-buffer)", arch)
		}
		if cfg.BufferDepth < 2 {
			return BufferLayout{}, fmt.Errorf("router: arch %q needs BufferDepth >= 2 to split buffering between inputs and outputs", arch)
		}
		// Half of each input VC's depth moves to the output side; the
		// staging FIFO is shared across the port's VCs.
		h := cfg.BufferDepth / 2
		return BufferLayout{Arch: arch, InputDepth: cfg.BufferDepth - h, StageSlots: cfg.NumVCs() * h}, nil
	default:
		return BufferLayout{}, fmt.Errorf("router: unknown arch %q (want %q, %q or %q)", arch, ArchIQ, ArchOQ, ArchVOQ)
	}
}
