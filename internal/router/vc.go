package router

import (
	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// VCState tracks the wormhole allocation state of an input VC.
type VCState uint8

// VC states.
const (
	// VCIdle: no packet owns the VC.
	VCIdle VCState = iota
	// VCWaiting: a head flit is at the front, its route is computed, and
	// the VC is requesting switch allocation + downstream VC selection.
	VCWaiting
	// VCActive: the packet holds a downstream VC; remaining flits stream
	// through as credits allow.
	VCActive
)

// bufFlit is one buffered flit plus the cycle it becomes pipeline-eligible
// (buffer write takes the arrival cycle; SA may fire the next cycle).
type bufFlit struct {
	flit  message.Flit
	ready sim.Cycle
}

// VC is one virtual channel of an input port: a fixed-depth FIFO plus
// wormhole state, in exactly one cache line (TestLayoutPins). The front flit
// lives in the record itself, because almost every VC that holds anything
// holds one flit: delivery writes the line allocation reads a cycle later.
// Only the flits behind the front go to the ring, which therefore has
// BufferDepth-1 slots (none at depth 1) and is untouched until a VC holds two.
type VC struct {
	front bufFlit
	ring  []bufFlit
	head  uint32 // ring index of the flit behind the front
	count uint32 // flits held, the front included

	State   VCState
	OutPort topology.PortID
	OutVC   int8
	// routed marks that route computation already ran for the packet at
	// the front (RC happens once per packet per router).
	routed bool
	// Hold excludes the VC from normal switch allocation; a scheme plugin
	// owns its draining (UPP holds the tracked upward packet's VC at the
	// interposer router once its popup starts).
	Hold bool
}

// reset empties the VC and returns it to Idle; the ring storage stays.
func (v *VC) reset() {
	*v = VC{ring: v.ring, OutPort: topology.InvalidPort, OutVC: -1}
}

// Len returns the number of buffered flits.
func (v *VC) Len() int { return int(v.count) }

// Free returns the remaining buffer capacity.
func (v *VC) Free() int { return len(v.ring) + 1 - int(v.count) }

// Empty reports whether the buffer holds no flits.
func (v *VC) Empty() bool { return v.count == 0 }

// Front returns the flit at the head of the FIFO and its readiness, without
// removing it. ok is false when empty.
func (v *VC) Front() (f message.Flit, ready sim.Cycle, ok bool) {
	if v.count == 0 {
		return message.Flit{}, 0, false
	}
	return v.front.flit, v.front.ready, true
}

// FrontReady reports whether a flit is at the front and pipeline-eligible
// at the given cycle.
func (v *VC) FrontReady(cycle sim.Cycle) (message.Flit, bool) {
	f, ready, ok := v.Front()
	if !ok || ready > cycle {
		return message.Flit{}, false
	}
	return f, true
}

// at returns the i-th buffered flit in FIFO order: the front, then the ring.
func (v *VC) at(i int) *bufFlit {
	if i == 0 {
		return &v.front
	}
	j := int(v.head) + i - 1
	if j >= len(v.ring) {
		j -= len(v.ring)
	}
	return &v.ring[j]
}

// Scan calls fn for each buffered flit in FIFO order. Debug walkers
// (Network.CheckNoReleasedInFlight) use it to audit buffer contents
// without exposing the ring internals.
func (v *VC) Scan(fn func(message.Flit)) {
	for i := 0; i < int(v.count); i++ {
		fn(v.at(i).flit)
	}
}

// push appends a flit. It panics on overflow — arrivals are credit-
// controlled, so overflow is a flow-control bug worth failing loudly on.
func (v *VC) push(f message.Flit, ready sim.Cycle) {
	if message.PoolDebug && f.Pkt.Released() {
		panic("router: buffering flit of released packet (stale-generation access)")
	}
	if int(v.count) > len(v.ring) {
		panic("router: VC buffer overflow (credit protocol violated)")
	}
	if v.count == 0 {
		v.front = bufFlit{flit: f, ready: ready}
	} else {
		*v.at(int(v.count)) = bufFlit{flit: f, ready: ready}
	}
	v.count++
}

// pop removes and returns the front flit, refilling the front from the ring
// when flits remain.
func (v *VC) pop() message.Flit {
	if v.count == 0 {
		panic("router: pop from empty VC")
	}
	f := v.front.flit
	if v.count--; v.count == 0 {
		v.front = bufFlit{}
		return f
	}
	v.front = v.ring[v.head]
	v.ring[v.head] = bufFlit{}
	if v.head++; int(v.head) == len(v.ring) {
		v.head = 0
	}
	return f
}
