package router

import (
	"fmt"
	"math/bits"

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
// Only the flits behind the front go to the ring, a chunk of BufferDepth-1
// slots the VC borrows from its router's slot pool when a second flit
// arrives and returns when it drains back to one (DESIGN.md §8).
type VC struct {
	front bufFlit
	ring  []bufFlit // the borrowed chunk; nil while the VC holds under two flits
	head  uint32    // ring index of the flit behind the front
	count uint32    // flits held, the front included

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
	// depth is the VC's capacity, BufferDepth: Free and the overflow check
	// read it here, with or without a chunk.
	depth uint16
}

// reset returns an empty VC to Idle. It keeps no chunk and returns none: a
// VC that may still hold flits is emptied with empty instead.
func (v *VC) reset() {
	*v = VC{OutPort: topology.InvalidPort, OutVC: -1, depth: v.depth}
}

// empty drops every flit the VC holds, returning its chunk to pl with every
// slot zeroed, and resets it.
func (v *VC) empty(pl *slotPool) {
	if v.ring != nil {
		clear(v.ring)
		pl.put(v.ring)
	}
	v.reset()
}

// Len returns the number of buffered flits.
func (v *VC) Len() int { return int(v.count) }

// Free returns the remaining buffer capacity.
func (v *VC) Free() int { return int(v.depth) - int(v.count) }

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

// push appends a flit, borrowing a chunk from pl for the second. It panics
// on overflow — arrivals are credit-controlled, so overflow is a
// flow-control bug worth failing loudly on.
func (v *VC) push(f message.Flit, ready sim.Cycle, pl *slotPool) {
	if message.Debug && f.Pkt.Released() {
		panic("router: buffering flit of released packet (stale-generation access)")
	}
	b := bufFlit{flit: f, ready: ready}
	switch {
	case v.count >= uint32(v.depth):
		panic("router: VC buffer overflow (credit protocol violated)")
	case v.count == 0:
		v.front = b
	case v.count == 1:
		v.ring, v.head = pl.take(), 0
		v.ring[0] = b
	default:
		*v.at(int(v.count)) = b
	}
	v.count++
}

// pop removes and returns the front flit, refilling the front from the ring
// when flits remain; the chunk goes back to pl, every slot zeroed, when one
// flit is left.
func (v *VC) pop(pl *slotPool) message.Flit {
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
	if v.count == 1 {
		pl.put(v.ring)
		v.ring = nil
	}
	return f
}

// slotPool lends VCs the ring chunks behind their front flits. Only a VC
// holding two or more flits holds a chunk — a small share of VCs at any one
// time — so the routers of one 64-NodeID block share one pool instead of
// every VC owning BufferDepth-1 slots. The block is the parallel kernel's
// unit of ownership: its deliveries and steps run on one worker, and scheme
// plugins pop VCs only on the coordinator, so no pool is ever touched by two
// goroutines at once. The free stack is LIFO, so the chunk just returned —
// still in cache — is the next one lent. When it runs dry the pool grows by
// a batch of as many chunks as it started with, a high-water mark that
// steady state then never passes again.
type slotPool struct {
	free    [][]bufFlit // chunks not lent, the next to lend last
	chunks  int         // chunks owned, lent or free
	size    int         // slots per chunk: BufferDepth-1
	batch   int         // chunks a dry pool grows by
	routers []*Router   // the routers it serves, which the audit walks
}

// grow adds n chunks cut from slab, or from a new slab when slab is nil.
func (p *slotPool) grow(n int, slab []bufFlit) {
	if slab == nil {
		slab = make([]bufFlit, n*p.size)
	}
	for i := range n {
		p.free = append(p.free, slab[i*p.size:(i+1)*p.size:(i+1)*p.size])
	}
	p.chunks += n
}

// take lends a chunk, growing the pool when none is free.
func (p *slotPool) take() []bufFlit {
	if len(p.free) == 0 {
		p.grow(p.batch, nil)
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return c
}

// put returns a chunk whose slots are all zero.
func (p *slotPool) put(c []bufFlit) { p.free = append(p.free, c) }

// audit holds the pool to its lending: no chunk is lent twice or both lent
// and free, and the lent and free chunks add up to those it owns. (That a
// VC holds a chunk exactly when it holds two or more flits is each router's
// own check, Router.CheckDerived.)
func (p *slotPool) audit() error {
	seen := make(map[*bufFlit]bool, p.chunks)
	// fresh reports whether c is a whole chunk not met before, and marks it.
	fresh := func(c []bufFlit) bool {
		if len(c) != p.size || p.size > 0 && seen[&c[0]] {
			return false
		}
		if p.size > 0 {
			seen[&c[0]] = true
		}
		return true
	}
	for i, c := range p.free {
		if !fresh(c) {
			return fmt.Errorf("slot pool: free chunk %d of %d slots (want %d) is free twice", i, len(c), p.size)
		}
	}
	// Only a VC holding flits holds a chunk, and the occupancy masks name
	// those VCs: each router's CheckDerived holds it to both.
	lent := 0
	for _, r := range p.routers {
		for in := r.occ; in != 0; in &= in - 1 {
			pi := bits.TrailingZeros32(in)
			for m := r.ports[pi].vcMask; m != 0; m &= m - 1 {
				vi := bits.TrailingZeros64(m)
				if c := r.vcs[pi*r.nvc+vi].ring; c != nil {
					if !fresh(c) {
						return fmt.Errorf("router %d in[%d] vc%d: its chunk is lent twice or also free", r.ID, pi, vi)
					}
					lent++
				}
			}
		}
	}
	if lent+len(p.free) != p.chunks {
		return fmt.Errorf("slot pool: %d chunks lent and %d free, pool owns %d", lent, len(p.free), p.chunks)
	}
	return nil
}
