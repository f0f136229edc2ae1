package core

import (
	"fmt"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
)

// drain advances one popup's upward packet by at most one flit per router
// per cycle. Flits bypass buffers: between routers they sit in the
// per-VNet circuit latch and take only switch traversal + link traversal
// per hop, with absolute crossbar priority (Sec. V-C).
//
// Routers are processed destination-first so a chain of flits pipelines:
// the downstream latch empties before the upstream router tries to fill
// it in the same cycle.
func (u *UPP) drain(p *popup, cycle sim.Cycle) {
	for i := len(p.path) - 1; i >= 1; i-- {
		u.drainChipletHop(p, i, cycle)
		if u.popups[p.id] == nil {
			return // popup completed mid-drain (tail ejected)
		}
	}
	u.drainOrigin(p, cycle)
}

// drainChipletHop moves one flit at path[i]: first any buffered flit of
// the packet (earlier in sequence than anything in the latch), then the
// latch flit. It also force-releases the VC once the packet has diverted
// past it (partly-transmitted wormhole case, Sec. V-B3).
func (u *UPP) drainChipletHop(p *popup, i int, cycle sim.Cycle) {
	h := &p.path[i]
	ns := &u.nodes[h.node]
	ce := &ns.circuit[p.vnet]
	if !ce.active || ce.popupID != p.id {
		return
	}
	r := u.net.Router(h.node)
	moved := false

	// 1. Buffered flits of the packet in the circuit's input port.
	for vcIdx := 0; vcIdx < r.Cfg.NumVCs(); vcIdx++ {
		vc := r.VCAt(ce.inPort, vcIdx)
		f, ok := vc.FrontReady(cycle)
		if !ok || !p.holds(f.Pkt) {
			continue
		}
		ce.vcIdx = int8(vcIdx)
		if u.forwardPopupFlit(p, i, r, cycle, true, vcIdx) {
			moved = true
			if f.IsTail() {
				// The tail passed through this VC: PopFront reset it and
				// sent the free credit; no force-release is needed.
				ce.released = true
			}
		}
		break
	}

	// 2. The latch flit (a later flit arriving from upstream).
	if !moved {
		l := &ns.popupLatch[p.vnet]
		if l.valid && l.ready <= cycle {
			if u.forwardPopupFlit(p, i, r, cycle, false, -1) {
				l.valid = false
			}
		}
	}

	// 3. Release a VC the packet has diverted past: its remaining flits
	// travel by latch, so its tail will never arrive to reset it and free
	// the upstream router's allocation. This covers VCs left Active and
	// VCs never routed at all (a head popped straight out of an Idle VC).
	// The +3-cycle guard lets normally-sent in-flight flits land first.
	if ce.vcIdx >= 0 && !ce.released && cycle >= p.drainStart+3 {
		vc := r.VCAt(ce.inPort, int(ce.vcIdx))
		if vc.Empty() {
			r.ForceReleaseVC(ce.inPort, int(ce.vcIdx), cycle)
			ce.released = true
		}
	}
}

// forwardPopupFlit moves one flit of popup p out of router r at hop i,
// either popping it from VC vcIdx of the circuit input port (fromVC) or
// taking it from the latch. Returns whether the flit moved.
func (u *UPP) forwardPopupFlit(p *popup, i int, r *router.Router, cycle sim.Cycle, fromVC bool, vcIdx int) bool {
	h := &p.path[i]
	out := h.outPort
	last := i == len(p.path)-1
	var nextLatch *flitLatch
	if !last {
		nextLatch = &u.nodes[p.path[i+1].node].popupLatch[p.vnet]
		if nextLatch.valid || nextLatch.reserved {
			return false
		}
	}
	if r.PortDown(out) {
		return false // mesh link transiently down: the drain waits out the flap
	}
	if r.OutputClaimed(out, cycle) {
		return false
	}
	if fromVC && !r.ClaimInput(h.inPort, cycle) {
		return false
	}
	r.ClaimOutput(out, cycle)

	var f = u.nodes[h.node].popupLatch[p.vnet].flit
	if fromVC {
		f = r.PopFront(h.inPort, vcIdx, cycle)
	}
	if last {
		// Eject straight into the reserved entry (Sec. V-B).
		r.EjectDirect(f, cycle)
		return true
	}
	r.SendDirect(out)
	nextLatch.reserved = true
	u.net.ScheduleCall(cycle+1+u.linkLat(), network.SchemeCall{
		Kind: uppCallLatch, Node: p.path[i+1].node, B: uint64(p.vnet), Flit: f, HasFlit: true,
	})
	return true
}

// drainOrigin sends the packet's flits out of the origin interposer
// router's tracked VC across the up link. Trailing flits still arriving
// through the interposer mesh keep flowing into this VC normally and are
// forwarded as they become ready.
func (u *UPP) drainOrigin(p *popup, cycle sim.Cycle) {
	if p.tailLeftOrigin {
		return
	}
	r := u.net.Router(p.origin)
	vc := r.VCAt(p.port, p.vcIdx)
	f, ok := vc.FrontReady(cycle)
	if !ok || !p.holds(f.Pkt) {
		return
	}
	out := p.path[0].outPort
	nextLatch := &u.nodes[p.path[1].node].popupLatch[p.vnet]
	if nextLatch.valid || nextLatch.reserved {
		return
	}
	if r.OutputClaimed(out, cycle) || !r.ClaimInput(p.port, cycle) {
		return
	}
	r.ClaimOutput(out, cycle)
	f = r.PopFront(p.port, p.vcIdx, cycle)
	r.SendDirect(out)
	r.MarkUpSent(p.vnet, cycle)
	if f.IsTail() {
		p.tailLeftOrigin = true
	}
	nextLatch.reserved = true
	u.net.ScheduleCall(cycle+1+u.linkLat(), network.SchemeCall{
		Kind: uppCallLatch, Node: p.path[1].node, B: uint64(p.vnet), Flit: f, HasFlit: true,
	})
}

// UPPStateOK validates internal invariants; tests call it after runs.
func (u *UPP) UPPStateOK() error {
	for ci := range u.tokens {
		for v := range u.tokens[ci] {
			if id := u.tokens[ci][v]; id != 0 && u.popups[id] == nil {
				return fmt.Errorf("upp: token held by retired popup %d (chiplet %d, vnet %d)", id, ci, v)
			}
		}
	}
	return nil
}
