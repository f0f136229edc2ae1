package network

import (
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// WheelBuffers counts the event buffers the wheel owns: one per slot that
// holds events plus the drained ones on the free stack.
func (n *Network) WheelBuffers() int {
	held := len(n.wheelFree)
	for i := range n.wheel {
		if n.wheel[i] != nil {
			held++
		}
	}
	return held
}

// NewUnpooled is New with packet recycling off: every packet is allocated
// fresh and never released — the reference the pooled run is compared
// against (TestPoolTraceEquality, TestPoolingConfigResolution).
func NewUnpooled(t *topology.Topology, cfg Config, scheme Scheme) (*Network, error) {
	n, err := New(t, cfg, scheme)
	if err == nil {
		n.noPool = true
	}
	return n, err
}

// EjectionDepth is the per-VNet ejection queue capacity in packets.
const EjectionDepth = ejectionDepth

// StallDiagnosticNow is the watchdog report Drain would return for the
// current state after stallLimit cycles without an ejection.
func (n *Network) StallDiagnosticNow(stallLimit sim.Cycle) *StallDiagnostic {
	return n.stallDiagnostic(stallLimit)
}

// DueEvents counts the flits and credits due at the current cycle, the
// parallel kernel's outboxes included: what its deliver phase engages on.
func (n *Network) DueEvents() int {
	return len(n.wheel[n.cycle%wheelSize]) + n.par.queued[n.cycle&1]
}

// ParallelMinEvents is the deliver phase's engagement threshold.
const ParallelMinEvents = parallelMinEvents

// DealBlocks is the parallel kernel's block map at workers workers, already
// clamped to the block count: each block's owner and each worker's blocks.
func DealBlocks(t *topology.Topology, workers int) (owner []int32, mine [][]int32) {
	return dealBlocks(t, workers)
}

// BlockShift is log2 of the parallel kernel's block size.
const BlockShift = blockShift
