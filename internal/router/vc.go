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
// wormhole state.
type VC struct {
	buf   []bufFlit
	head  int
	count int

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

func (v *VC) reset() {
	v.head, v.count = 0, 0
	v.State = VCIdle
	v.OutPort = topology.InvalidPort
	v.OutVC = -1
	v.routed = false
	v.Hold = false
}

// Len returns the number of buffered flits.
func (v *VC) Len() int { return v.count }

// Free returns the remaining buffer capacity.
func (v *VC) Free() int { return len(v.buf) - v.count }

// Empty reports whether the buffer holds no flits.
func (v *VC) Empty() bool { return v.count == 0 }

// Front returns the flit at the head of the FIFO and its readiness, without
// removing it. ok is false when empty.
func (v *VC) Front() (f message.Flit, ready sim.Cycle, ok bool) {
	if v.count == 0 {
		return message.Flit{}, 0, false
	}
	b := v.buf[v.head]
	return b.flit, b.ready, true
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

// Scan calls fn for each buffered flit in FIFO order. Debug walkers
// (Network.CheckNoReleasedInFlight) use it to audit buffer contents
// without exposing the ring internals.
func (v *VC) Scan(fn func(message.Flit)) {
	for i, at := 0, v.head; i < v.count; i++ {
		fn(v.buf[at].flit)
		if at++; at == len(v.buf) {
			at = 0
		}
	}
}

// push appends a flit. It panics on overflow — arrivals are credit-
// controlled, so overflow is a flow-control bug worth failing loudly on.
func (v *VC) push(f message.Flit, ready sim.Cycle) {
	if message.PoolDebug && f.Pkt.Released() {
		panic("router: buffering flit of released packet (stale-generation access)")
	}
	if v.count == len(v.buf) {
		panic("router: VC buffer overflow (credit protocol violated)")
	}
	at := v.head + v.count
	if at >= len(v.buf) {
		at -= len(v.buf)
	}
	v.buf[at] = bufFlit{flit: f, ready: ready}
	v.count++
}

// pop removes and returns the front flit.
func (v *VC) pop() message.Flit {
	if v.count == 0 {
		panic("router: pop from empty VC")
	}
	f := v.buf[v.head].flit
	v.buf[v.head] = bufFlit{}
	if v.head++; v.head == len(v.buf) {
		v.head = 0
	}
	v.count--
	return f
}
