package network

import (
	"fmt"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Consumer is the processing element behind an NI. It receives complete
// messages; returning false means the PE cannot consume the message yet
// (e.g. a directory waiting for response-injection space — the second case
// of the Sec. V-B4 proof) and the NI retries every cycle, holding the
// ejection-queue entry meanwhile.
type Consumer func(p *message.Packet, cycle sim.Cycle) bool

// stream tracks a packet currently being flit-injected into the router.
type stream struct {
	pkt  *message.Packet
	vc   int8
	next int32
}

// reservationWaiter is a pending UPP_req waiting for a free ejection
// entry. It is plain data — the grant goes back to the scheme as a
// SchemeCall (see RequestReservation) — so a snapshot holds it whole.
type reservationWaiter struct {
	vnet    message.VNet
	popupID uint64
}

// NI is a network interface: per-VNet injection queues that segment
// messages into flits, and per-VNet bounded ejection queues that
// reassemble flits into messages for the PE (the model of Sec. V-B4).
type NI struct {
	Node topology.NodeID
	net  *Network
	r    *router.Router
	cfg  router.Config

	// Injection side.
	injQ    [message.NumVNets]pktRing
	streams [message.NumVNets]stream
	active  [message.NumVNets]bool
	credits []int16
	busy    []bool
	vnetRR  int

	// Ejection side.
	ejCap      int
	ejOccupied [message.NumVNets]int
	ejReserved [message.NumVNets]int
	waiters    []reservationWaiter
	// asm tracks packets mid-reassembly in reusable slots (at most one
	// per ejection entry, so the scan is short). It replaced a
	// map[uint64]int32 keyed by packet ID whose insert/delete churn
	// allocated in steady state.
	asm      []asmSlot
	asmLive  int
	complete []completed

	// Consume delivers reassembled messages to the PE. Defaults to
	// consume-immediately.
	Consume Consumer
}

// asmSlot is one in-progress reassembly: the packet and how many of its
// flits have arrived. A nil pkt marks a free slot.
type asmSlot struct {
	pkt *message.Packet
	got int32
}

type completed struct {
	pkt   *message.Packet
	ready sim.Cycle
}

func newNI(net *Network, node topology.NodeID, r *router.Router, cfg router.Config, ejCap int) *NI {
	ni := &NI{
		Node:    node,
		net:     net,
		r:       r,
		cfg:     cfg,
		ejCap:   ejCap,
		credits: make([]int16, cfg.NumVCs()),
		busy:    make([]bool, cfg.NumVCs()),
	}
	for i := range ni.credits {
		ni.credits[i] = int16(cfg.BufferDepth)
	}
	ni.Consume = func(*message.Packet, sim.Cycle) bool { return true }
	return ni
}

// carveEjectionLists gives the reassembly and completion lists their full
// capacity n, keeping what they hold. Both backlogs are bounded by ejCap
// packets per VNet (an ejection entry is held until the PE consumes the
// message), so each list is carved once, at its maximum: on systems with
// thousands of NIs growth an entry at a time would otherwise trickle
// steady-state allocations for as long as some NI somewhere has yet to see
// its worst case. AcceptFlit carves them, on the NI's first ejection (or
// its first after a restore left them short), not construction: a node
// that is never a destination — half of a large system's NIs have no core
// — keeps no lists.
func (ni *NI) carveEjectionLists(n int) {
	if cap(ni.asm) < n {
		ni.asm = append(make([]asmSlot, 0, n), ni.asm...)
	}
	if cap(ni.complete) < n {
		ni.complete = append(make([]completed, 0, n), ni.complete...)
	}
}

// Enqueue places a message in the injection queue of its VNet. The
// injection queue models the PE-side message queue; its occupancy shows up
// as queueing latency.
func (ni *NI) Enqueue(p *message.Packet, cycle sim.Cycle) {
	p.BirthCycle = cycle
	ni.net.prepare(p)
	ni.injQ[p.VNet].Push(p)
	ni.net.Stats.BornPackets++
	ni.net.wakeNI(ni.Node)
}

// InjQueueLen returns the injection queue depth of a VNet (tests read
// it; coherence PEs ask InjSpace whether a packet fits under their cap).
func (ni *NI) InjQueueLen(v message.VNet) int { return ni.injQ[v].Len() }

// InjSpace reports whether the injection queue of v has room under cap
// (<=0 means unbounded).
func (ni *NI) InjSpace(v message.VNet, cap int) bool {
	return cap <= 0 || ni.injQ[v].Len() < cap
}

// receiveCredit handles credits returned by the router's local input port.
func (ni *NI) receiveCredit(vc int8, delta int, free bool) {
	ni.credits[vc] += int16(delta)
	if free {
		ni.busy[vc] = false
	}
}

// Idle reports that stepping this NI would be a no-op: nothing to
// consume, no reservation waiters, no queued or streaming injections.
// Reassembly-in-progress (ni.asm) does not require stepping — flits
// arrive through AcceptFlit, which wakes the NI when a packet completes.
func (ni *NI) Idle() bool {
	if len(ni.complete) > 0 || len(ni.waiters) > 0 {
		return false
	}
	for v := 0; v < message.NumVNets; v++ {
		if ni.active[v] || ni.injQ[v].Len() > 0 {
			return false
		}
	}
	return true
}

// step advances the NI one cycle: consume completed messages, grant
// pending UPP reservations, start and continue flit injection.
func (ni *NI) step(cycle sim.Cycle) {
	ni.consumeStep(cycle)
	ni.grantWaiters(cycle)
	ni.injectStep(cycle)
}

func (ni *NI) consumeStep(cycle sim.Cycle) {
	if len(ni.complete) == 0 {
		return
	}
	if ni.net.ejectionStalled(ni.Node, cycle) {
		// Injected PE stall: completed messages wait, holding their
		// ejection entries — the same backpressure a slow Consumer exerts,
		// so no protocol invariant is disturbed. Counted only when there
		// was something to consume, which is exactly when the NI is awake
		// under every kernel — keeping Stats kernel-identical.
		ni.net.Stats.EjectionStalls++
		return
	}
	kept := ni.complete[:0]
	for _, c := range ni.complete {
		if c.ready > cycle || !ni.Consume(c.pkt, cycle) {
			kept = append(kept, c)
			continue
		}
		ni.ejOccupied[c.pkt.VNet]--
		ni.net.Stats.ConsumedPackets++
		// The PE consumed the message: ownership ends here. Stats were
		// recorded at tail ejection and scheme hooks (UPP popup
		// completion) already ran, so this is the protocol's single
		// release point.
		ni.net.releasePacket(c.pkt)
	}
	// Zero the vacated tail: the in-place filter leaves the removed
	// entries in the slack capacity, where their packet pointers would
	// pin released packets until the slice regrows.
	for i := len(kept); i < len(ni.complete); i++ {
		ni.complete[i] = completed{}
	}
	ni.complete = kept
}

func (ni *NI) grantWaiters(cycle sim.Cycle) {
	if len(ni.waiters) == 0 {
		return
	}
	kept := ni.waiters[:0]
	for _, w := range ni.waiters {
		if ni.freeEj(w.vnet) > 0 {
			ni.grantReservation(w, cycle)
		} else {
			kept = append(kept, w)
		}
	}
	clear(ni.waiters[len(kept):])
	ni.waiters = kept
}

// grantReservation reserves an ejection entry for w and tells the scheme.
func (ni *NI) grantReservation(w reservationWaiter, cycle sim.Cycle) {
	ni.ejReserved[w.vnet]++
	ni.net.scheme.OnScheduledCall(SchemeCall{
		Kind: CallReservationGranted, Node: ni.Node, A: w.popupID, B: uint64(w.vnet),
	}, cycle)
}

func (ni *NI) injectStep(cycle sim.Cycle) {
	// Start new streams: one attempt per VNet per cycle. During an
	// epoch-based reconfiguration transition injection is held: no new
	// stream may start until the old routing epoch drains (streams
	// already mid-flight finish — wormhole atomicity).
	for v := 0; v < message.NumVNets; v++ {
		if ni.active[v] || ni.injQ[v].Len() == 0 {
			continue
		}
		if ni.net.injectHold {
			ni.net.Stats.ReconfigHeldStreams++
			continue
		}
		p := ni.injQ[v].Front()
		if gate := ni.net.injectGate; gate != nil && !gate(p, cycle) {
			continue
		}
		vc := ni.pickFreeVC(message.VNet(v))
		if vc < 0 {
			continue
		}
		ni.busy[vc] = true
		ni.streams[v] = stream{pkt: p, vc: vc}
		ni.active[v] = true
		ni.injQ[v].Pop()
	}
	// The local port is one physical channel: one flit per cycle,
	// round-robin over VNets with an active stream and credit.
	for k := 0; k < message.NumVNets; k++ {
		v := (ni.vnetRR + 1 + k) % message.NumVNets
		if !ni.active[v] {
			continue
		}
		st := &ni.streams[v]
		if ni.credits[st.vc] <= 0 {
			continue
		}
		ni.vnetRR = v
		ni.credits[st.vc]--
		f := message.Flit{Pkt: st.pkt, Seq: st.next}
		if f.IsHead() {
			st.pkt.InjectCycle = cycle
			// Stamp the packet's routing epoch at the moment its head
			// enters the network: route lookups stay pinned to this
			// epoch's tables until delivery or migration (see Route).
			st.pkt.Epoch = ni.net.routeEpoch
			ni.net.epochLive[st.pkt.Epoch&1].Add(1)
			ni.net.Stats.InjectedPackets++
			if ni.net.Tracing() {
				// Guarded: the variadic argument boxing would allocate
				// per injection even with tracing off.
				ni.net.Trace("inject", ni.Node, "pkt%d %s %d->%d (%d flits, queued %d cycles)",
					st.pkt.ID, st.pkt.VNet, st.pkt.Src, st.pkt.Dst, st.pkt.Size, cycle-st.pkt.BirthCycle)
			}
		}
		ni.net.Stats.InjectedFlits++
		st.next++
		ni.net.deliverLocalFlit(ni.Node, st.vc, f, cycle+1)
		if f.IsTail() {
			ni.active[v] = false
			ni.streams[v] = stream{}
		}
		break
	}
}

func (ni *NI) pickFreeVC(v message.VNet) int8 {
	for k := 0; k < ni.cfg.VCsPerVNet; k++ {
		vc := int8(ni.cfg.VCIndex(v, k))
		if !ni.busy[vc] && ni.credits[vc] == int16(ni.cfg.BufferDepth) {
			return vc
		}
	}
	return -1
}

// --- Ejection side ---------------------------------------------------------

func (ni *NI) freeEj(v message.VNet) int {
	return ni.ejCap - ni.ejOccupied[v] - ni.ejReserved[v]
}

// FreeEjectionEntries reports the unreserved free ejection entries of v.
func (ni *NI) FreeEjectionEntries(v message.VNet) int { return ni.freeEj(v) }

// ReservedEntries returns the UPP-reserved entry count for v.
func (ni *NI) ReservedEntries(v message.VNet) int { return ni.ejReserved[v] }

// CanAcceptHead implements router.LocalSink: a normal packet may begin
// ejecting only into a free, unreserved entry.
func (ni *NI) CanAcceptHead(p *message.Packet, _ sim.Cycle) bool {
	return ni.freeEj(p.VNet) > 0
}

// AcceptFlit implements router.LocalSink. Head flits claim their ejection
// entry (popup heads consume the UPP reservation); tail flits complete
// reassembly and hand the message to the PE. During the parallel kernel's
// step phase the call is only logged, and its global effects run when the
// commit replays it; CanAcceptHead stays exact, as ejection state is only
// written on the coordinator or by this router's own later AcceptFlit.
func (ni *NI) AcceptFlit(f message.Flit, arrival sim.Cycle) {
	if par := &ni.net.par; par.phase == phaseStep {
		b := &par.blocks[ni.Node>>blockShift]
		b.ejects = append(b.ejects, ejection{ni: ni.Node, at: arrival, flit: f})
		return
	}
	p := f.Pkt
	if p.Released() {
		// A flit of a released packet reached an NI: some holder kept a
		// stale pointer across the pool release. Always-on — ejection is
		// once per flit, so the check is one bit test.
		panic(fmt.Sprintf("ni %d: flit of released packet %d (stale-generation access)", ni.Node, p.ID))
	}
	if p.Popup && !p.PopupResUsed {
		// The first popup-mode flit consumes the reserved entry — usually
		// the head, but a body flit when the head already ejected normally
		// before the popup began (late false positive).
		if ni.ejReserved[p.VNet] <= 0 {
			panic(fmt.Sprintf("ni %d: popup flit without reservation (pkt %d)", ni.Node, p.ID))
		}
		ni.ejReserved[p.VNet]--
		p.PopupResUsed = true
	}
	if f.IsHead() {
		ni.ejOccupied[p.VNet]++
	}
	if n := ni.ejCap * message.NumVNets; cap(ni.asm) < n || cap(ni.complete) < n {
		ni.carveEjectionLists(n)
	}
	ni.net.Stats.EjectedFlits++
	if int(ni.asmAdd(p)) != p.Size {
		return
	}
	ni.asmRemove(p)
	p.EjectCycle = arrival
	if ni.net.Tracing() {
		ni.net.Trace("eject", ni.Node, "pkt%d %s %d->%d latency=%d popup=%v",
			p.ID, p.VNet, p.Src, p.Dst, p.EjectCycle-p.InjectCycle, p.Popup)
	}
	ni.complete = append(ni.complete, completed{pkt: p, ready: arrival})
	ni.net.wakeNI(ni.Node)
	ni.net.recordEjected(p, arrival)
	if p.Popup {
		ni.net.scheme.OnScheduledCall(SchemeCall{
			Kind: CallPopupEjected, Node: ni.Node, A: p.PopupID, Flit: f, HasFlit: true,
		}, arrival)
	}
}

// asmAdd records one arrived flit of p, claiming a reassembly slot on
// the first, and returns the new flit count. Slots are found by linear
// scan: at most ejCap packets per VNet reassemble concurrently, so the
// list stays a handful of entries.
func (ni *NI) asmAdd(p *message.Packet) int32 {
	freeIdx := -1
	for i := range ni.asm {
		switch ni.asm[i].pkt {
		case p:
			ni.asm[i].got++
			return ni.asm[i].got
		case nil:
			if freeIdx < 0 {
				freeIdx = i
			}
		}
	}
	if freeIdx < 0 {
		ni.asm = append(ni.asm, asmSlot{})
		freeIdx = len(ni.asm) - 1
	}
	ni.asm[freeIdx] = asmSlot{pkt: p, got: 1}
	ni.asmLive++
	return 1
}

// asmRemove frees p's reassembly slot (zeroing it so the slot does not
// retain the packet).
func (ni *NI) asmRemove(p *message.Packet) {
	for i := range ni.asm {
		if ni.asm[i].pkt == p {
			ni.asm[i] = asmSlot{}
			ni.asmLive--
			return
		}
	}
	panic(fmt.Sprintf("ni %d: reassembly slot for pkt %d not found", ni.Node, p.ID))
}

// RequestReservation implements the NI side of UPP_req (Sec. V-B): reserve
// an ejection entry for vnet and hand the scheme a CallReservationGranted
// through OnScheduledCall when done — immediately if an entry is free,
// otherwise as soon as one frees up (guaranteed to happen; see the
// Sec. V-B4 proof cases enforced by Consumer semantics).
func (ni *NI) RequestReservation(vnet message.VNet, popupID uint64, cycle sim.Cycle) {
	w := reservationWaiter{vnet: vnet, popupID: popupID}
	if ni.freeEj(vnet) > 0 {
		ni.grantReservation(w, cycle)
		return
	}
	ni.waiters = append(ni.waiters, w)
	ni.net.wakeNI(ni.Node)
}

// CancelReservation implements UPP_stop: recycle a reservation (or drop the
// pending request) for the given popup.
func (ni *NI) CancelReservation(vnet message.VNet, popupID uint64) {
	for i, w := range ni.waiters {
		if w.popupID == popupID {
			ni.waiters = slices.Delete(ni.waiters, i, i+1)
			return
		}
	}
	if ni.ejReserved[vnet] <= 0 {
		panic(fmt.Sprintf("ni %d: cancel of non-existent reservation (vnet %s popup %d)", ni.Node, vnet, popupID))
	}
	ni.ejReserved[vnet]--
}

// Router returns the router this NI is attached to.
func (ni *NI) Router() *router.Router { return ni.r }

// Pending reports in-flight work at this NI: queued, streaming or
// reassembling packets (used by drain loops and the watchdog).
func (ni *NI) Pending() int {
	n := ni.asmLive + len(ni.complete) + len(ni.waiters)
	for v := 0; v < message.NumVNets; v++ {
		n += ni.injQ[v].Len()
		if ni.active[v] {
			n++
		}
	}
	return n
}
