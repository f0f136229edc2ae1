package core

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// netSignalKind maps a latch occupant to the fault-injection signal kind.
func netSignalKind(k sigKind) network.SignalKind {
	if k == sigStop {
		return network.SignalStop
	}
	return network.SignalReq
}

// sendOriginSignals transmits pending UPP_req and UPP_stop signals from
// interposer routers. Signals from one router are serialized with at least
// SignalGap cycles between them (Sec. V-B5, first case).
func (u *UPP) sendOriginSignals(cycle sim.Cycle) {
	for _, p := range u.sortedPopups() {
		switch {
		case (!p.reqSent || p.resendReq) && !p.cancelled:
			u.trySendFromOrigin(p, sigReq, cycle)
		case p.stopPending:
			u.trySendFromOrigin(p, sigStop, cycle)
		}
	}
}

// trySendFromOrigin pushes a req or stop across the origin's up link into
// the first chiplet router's signal buffer.
func (u *UPP) trySendFromOrigin(p *popup, kind sigKind, cycle sim.Cycle) {
	ns := &u.nodes[p.origin]
	if cycle < ns.nextSignal {
		return
	}
	first := &u.nodes[p.path[1].node]
	if first.reqStop.valid || first.reqStop.reserved {
		return
	}
	r := u.net.Router(p.origin)
	out := p.path[0].outPort
	if r.OutputClaimed(out, cycle) {
		return // delayed by an upward flit (Sec. V-C1)
	}
	r.ClaimOutput(out, cycle)
	r.SendDirect(out)
	u.net.Stats.SignalsSent++
	ns.nextSignal = cycle + sim.Cycle(u.cfg.SignalGap)
	if kind == sigReq {
		p.reqSent = true
		p.resendReq = false
	} else {
		p.stopPending = false
	}
	u.armDeadline(p, cycle)
	// The signal has left the router; fault injection decides whether it
	// survives the wire (the vertical up link never flaps, but signals
	// can still be dropped or delayed).
	fate := u.net.SignalFate(netSignalKind(kind), p.id, 1, cycle)
	if fate.Drop {
		return
	}
	first.reqStop.reserved = true
	u.net.ScheduleCall(cycle+1+router.LinkDelay+fate.Delay, network.SchemeCall{
		Kind: uppCallSignal, Node: p.path[1].node, A: p.id, B: uint64(kind), Hop: 1,
	})
}

// signalArrive is the buffer write of a req/stop at path[hopIdx]. Reqs
// install the circuit entry (Fig. 6's chiplet-router table) as they pass.
// The landing node is captured at schedule time so a signal whose popup
// was force-retired mid-flight can still release its latch reservation.
func (u *UPP) signalArrive(popupID uint64, kind sigKind, hopIdx int, node topology.NodeID, arrival sim.Cycle) {
	ns := &u.nodes[node]
	p := u.popups[popupID]
	if p == nil {
		// The popup was force-retired (retry exhaustion) while this signal
		// was in flight: release the reservation and discard.
		ns.reqStop.reserved = false
		u.net.Stats.LateSignals++
		return
	}
	h := &p.path[hopIdx]
	ns.reqStop = reqStopLatch{
		valid:   true,
		kind:    kind,
		popupID: popupID,
		hopIdx:  hopIdx,
		ready:   arrival + 1, // BW this cycle, eligible next (head-flit pipeline)
	}
	if kind == sigReq {
		ce := &ns.circuit[p.vnet]
		if ce.active {
			if ce.popupID != popupID {
				// Two different live popups on one (node, VNet) would mean
				// the per-(chiplet, VNet) token was double-granted — a true
				// invariant, kept as a panic.
				panic(fmt.Sprintf("upp: circuit conflict at node %d vnet %s (popup %d vs %d)",
					node, p.vnet, ce.popupID, popupID))
			}
			// A retried req retracing entries its lost predecessor already
			// installed: leave the live entry untouched (the drain may be
			// using its vcIdx/released state).
		} else {
			*ce = circuitEntry{active: true, popupID: popupID, inPort: h.inPort, outPort: h.outPort, vcIdx: -1}
		}
	}
}

// moveSignals advances every buffered req/stop one hop and every ack one
// reverse hop, respecting crossbar claims (popup flits already claimed
// theirs — they have priority) and downstream buffer occupancy.
func (u *UPP) moveSignals(cycle sim.Cycle) {
	for id := range u.nodes {
		u.moveReqStop(topology.NodeID(id), cycle)
	}
	for id := range u.nodes {
		u.moveAcks(topology.NodeID(id), cycle)
	}
}

func (u *UPP) moveReqStop(node topology.NodeID, cycle sim.Cycle) {
	ns := &u.nodes[node]
	l := &ns.reqStop
	if !l.valid || l.ready > cycle {
		return
	}
	p := u.popups[l.popupID]
	if p == nil {
		// Defensive recovery (abortPopup sweeps its path's latches, so
		// this should be unreachable): discard instead of crashing.
		l.valid = false
		u.net.Stats.LateSignals++
		return
	}
	h := &p.path[l.hopIdx]
	if l.hopIdx == len(p.path)-1 {
		// Destination router: hand the signal to the NI.
		u.deliverReqStop(p, l.kind, cycle)
		l.valid = false
		return
	}
	r := u.net.Router(node)
	next := &u.nodes[p.path[l.hopIdx+1].node]
	if next.reqStop.valid || next.reqStop.reserved {
		return
	}
	if r.PortDown(h.outPort) {
		return // mesh link transiently down: wait out the flap
	}
	if r.OutputClaimed(h.outPort, cycle) {
		return // delayed one cycle by an upward flit (Sec. V-C1)
	}
	r.ClaimOutput(h.outPort, cycle)
	r.SendDirect(h.outPort)
	u.net.Stats.SignalsSent++
	if l.kind == sigStop {
		// Stops dismantle the circuit as they retrace the req's path.
		ce := &ns.circuit[p.vnet]
		if ce.active && ce.popupID == p.id {
			*ce = circuitEntry{vcIdx: -1}
		}
	}
	id, kind, hopIdx := p.id, l.kind, l.hopIdx+1
	l.valid = false
	fate := u.net.SignalFate(netSignalKind(kind), id, hopIdx, cycle)
	if fate.Drop {
		return
	}
	next.reqStop.reserved = true
	u.net.ScheduleCall(cycle+1+router.LinkDelay+fate.Delay, network.SchemeCall{
		Kind: uppCallSignal, Node: p.path[hopIdx].node, A: id, B: uint64(kind), Hop: int32(hopIdx),
	})
}

// deliverReqStop processes a req/stop reaching the destination NI. It
// addresses the destination through the popup's snapshot: a stop can
// arrive after a cancelled popup's packet was consumed and recycled.
func (u *UPP) deliverReqStop(p *popup, kind sigKind, cycle sim.Cycle) {
	ni := u.net.NI(p.dst)
	ns := &u.nodes[p.dst]
	if kind == sigStop {
		if p.resRequested {
			// Only cancel when reservation state exists: with signal drops
			// the req may never have arrived, and a blind cancel of nothing
			// was one of the protocol's panics.
			ni.CancelReservation(p.vnet, p.id)
			p.resRequested = false
		}
		ce := &ns.circuit[p.vnet]
		if ce.active && ce.popupID == p.id {
			*ce = circuitEntry{vcIdx: -1}
		}
		p.stopDelivered = true
		if p.ackLaunched && !p.ackDone {
			// The discarded ack still has to come home; re-arm the watchdog
			// so a lost ack cannot strand the cancelled popup forever.
			p.retries = 0
			u.armDeadline(p, cycle)
		}
		u.finishCancelled(p)
		return
	}
	if p.resRequested {
		// A retried req caught up with its delivered predecessor. The
		// reservation machinery is already engaged; if the ack was already
		// granted it may have been the thing that got lost — re-launch it
		// (launchAck merges if one is still buffered at the destination).
		u.net.Stats.LateSignals++
		if p.ackLaunched {
			u.launchAck(p, cycle)
		}
		return
	}
	p.resRequested = true
	if u.net.Tracing() {
		u.net.Trace("upp", p.dst, "popup %d: UPP_req at destination NI (vnet %s)", p.id, p.vnet)
	}
	ni.RequestReservation(p.vnet, p.id, cycle)
}

// launchAck places the UPP_ack in the destination router's ack buffer,
// merging with an ack of the same popup already buffered there (the paper
// ORs concurrent acks' one-hot VNet fields into the same 32-bit buffer —
// a retried req's duplicate ack merges the same way).
func (u *UPP) launchAck(p *popup, cycle sim.Cycle) {
	ns := &u.nodes[p.dst]
	for i := range ns.acks {
		if ns.acks[i].popupID == p.id {
			return
		}
	}
	if len(ns.acks)+ns.ackRes >= message.NumVNets {
		// Distinct popups are bounded by the per-(chiplet, VNet) token, so
		// overflow means the token was double-granted — a true invariant.
		panic(fmt.Sprintf("upp: ack buffer overflow at node %d (merging invariant violated)", p.dst))
	}
	ns.acks = append(ns.acks, ackEntry{popupID: p.id, hopIdx: len(p.path) - 1, ready: cycle + 1})
}

func (u *UPP) moveAcks(node topology.NodeID, cycle sim.Cycle) {
	ns := &u.nodes[node]
	if len(ns.acks) == 0 {
		return
	}
	kept := ns.acks[:0]
	for _, a := range ns.acks {
		if a.ready > cycle || !u.moveAck(node, a, cycle) {
			kept = append(kept, a)
		}
	}
	ns.acks = kept
}

// moveAck advances one ack a single reverse hop; it reports whether the
// ack left this router (or was discarded).
func (u *UPP) moveAck(node topology.NodeID, a ackEntry, cycle sim.Cycle) bool {
	p := u.popups[a.popupID]
	if p == nil {
		// Force-retired while buffered here (abortPopup sweeps its path,
		// so this should be unreachable): discard instead of crashing.
		u.net.Stats.LateSignals++
		return true
	}
	h := &p.path[a.hopIdx]
	r := u.net.Router(node)
	// The ack leaves through the port its req arrived on — the recorded
	// reverse path (Sec. V-B2).
	if r.PortDown(h.inPort) {
		return false // mesh link transiently down: wait out the flap
	}
	if r.OutputClaimed(h.inPort, cycle) {
		return false
	}
	if a.hopIdx == 1 {
		// Next stop is the origin interposer router: process on arrival.
		r.ClaimOutput(h.inPort, cycle)
		r.SendDirect(h.inPort)
		u.net.Stats.SignalsSent++
		id := a.popupID
		fate := u.net.SignalFate(network.SignalAck, id, a.hopIdx, cycle)
		if fate.Drop {
			return true
		}
		u.net.ScheduleCall(cycle+1+router.LinkDelay+fate.Delay, network.SchemeCall{
			Kind: uppCallAckOrigin, A: id,
		})
		return true
	}
	prev := &u.nodes[p.path[a.hopIdx-1].node]
	if len(prev.acks)+prev.ackRes >= message.NumVNets {
		return false
	}
	r.ClaimOutput(h.inPort, cycle)
	r.SendDirect(h.inPort)
	u.net.Stats.SignalsSent++
	id, hopIdx := a.popupID, a.hopIdx-1
	fate := u.net.SignalFate(network.SignalAck, id, a.hopIdx, cycle)
	if fate.Drop {
		return true
	}
	prev.ackRes++
	u.net.ScheduleCall(cycle+1+router.LinkDelay+fate.Delay, network.SchemeCall{
		Kind: uppCallAckRelay, Node: p.path[hopIdx].node, A: id, Hop: int32(hopIdx),
	})
	return true
}

// ackRelayArrive lands an ack one reverse hop down at node — the
// delivery half of moveAck's relay (dispatched via uppCallAckRelay).
func (u *UPP) ackRelayArrive(node topology.NodeID, id uint64, hopIdx int, arrival sim.Cycle) {
	pn := &u.nodes[node]
	pn.ackRes--
	if u.popups[id] == nil {
		// Landed after its popup was force-retired: discard.
		u.net.Stats.LateSignals++
		return
	}
	for i := range pn.acks {
		if pn.acks[i].popupID == id {
			// A duplicate ack (retried req) caught up with the original
			// at this node: merge (the OR of one-hot VNet fields).
			u.net.Stats.LateSignals++
			return
		}
	}
	pn.acks = append(pn.acks, ackEntry{popupID: id, hopIdx: hopIdx, ready: arrival + 1})
}

// ackAtOrigin processes the UPP_ack reaching the origin interposer router:
// start the popup drain, or discard the ack if the popup was cancelled
// meanwhile (Sec. V-B1, third rule).
func (u *UPP) ackAtOrigin(popupID uint64, cycle sim.Cycle) {
	p := u.popups[popupID]
	if p == nil {
		// The popup was force-retired while the ack was in flight.
		u.net.Stats.LateSignals++
		return
	}
	if p.stage == stageDrain {
		// Duplicate ack from a retried req; the first one already started
		// the drain.
		u.net.Stats.LateSignals++
		return
	}
	if p.cancelled {
		p.ackDone = true
		u.finishCancelled(p)
		return
	}
	r := u.net.Router(p.origin)
	vc := r.VCAt(p.port, p.vcIdx)
	if f, _, ok := vc.Front(); !ok || !p.holds(f.Pkt) {
		// The packet slipped away in the same cycle the ack landed; treat
		// it as a late false positive: cancel and recycle the reservation.
		p.cancelled = true
		p.ackDone = true
		p.stopPending = true
		u.net.Stats.PopupsCancelled++
		return
	}
	// holds established the packet is the live incarnation at the front
	// of the tracked VC; livePkt re-asserts before mutation.
	lp := p.livePkt()
	p.stage = stageDrain
	p.drainStart = cycle
	p.deadline = 0 // the drain makes its own progress; watchdog off
	lp.Popup = true
	lp.PopupID = p.id
	vc.Hold = true
	u.net.Stats.PopupsStarted++
	if u.net.Tracing() {
		u.net.Trace("upp", p.origin, "popup %d: UPP_ack received; draining pkt%d through the circuit", p.id, p.pktID)
	}
}
