package core

import (
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/snap"
)

// Snapshot describes UPP's full protocol state as one UPWS section
// (DESIGN.md §14), written or — on an identically-configured system —
// overwritten by the codec: the popup FSMs, every router's signal
// latches, ack buffers and circuit entries, the per-(chiplet, VNet)
// tokens and the ID allocator. Pending deferred actions (signals and
// popup flits in flight) live in the network's event wheel as
// SchemeCalls and pending reservation waiters at the NIs as (vnet,
// popup ID) pairs; both are serialized there.
func (u *UPP) Snapshot(c *snap.Codec) error {
	numNodes := int64(len(u.nodes))
	nvc := int64(u.net.Cfg.Router.NumVCs())
	maxPath := 2*len(u.nodes) + 2 // chasePath bounds each phase by NumNodes

	c.U64("upp next id", &u.nextID)
	var ps []*popup
	if c.Decoding() {
		u.popups = make(map[uint64]*popup)
		u.sorted = nil
	} else {
		ps = u.sortedPopups()
	}
	snap.Slice(c, "upp popup count", &ps, len(u.nodes)*message.NumVNets, func(pp **popup) {
		if c.Decoding() {
			*pp = &popup{}
		}
		p := *pp
		c.U64("popup id", &p.id)
		snap.Int(c, "popup vnet", &p.vnet, 0, message.NumVNets-1)
		snap.Int(c, "popup origin", &p.origin, 0, numNodes-1)
		c.Packet(&p.pkt)
		snap.Uint(c, "popup pkt gen", &p.pktGen, math.MaxUint32)
		snap.Int(c, "popup dst", &p.dst, 0, numNodes-1)
		snap.Int(c, "popup dst chiplet", &p.dstChiplet, 0, int64(len(u.tokens))-1)
		c.U64("popup pkt id", &p.pktID)
		snap.Int(c, "popup port", &p.port, 0, 127)
		snap.Int(c, "popup vc", &p.vcIdx, 0, nvc-1)
		snap.Int(c, "popup front seq", &p.frontSeq, 0, math.MaxInt32)
		snap.Slice(c, "popup path len", &p.path, maxPath, func(h *hop) {
			snap.Int(c, "hop node", &h.node, 0, numNodes-1)
			snap.Int(c, "hop in", &h.inPort, -1, 127)
			snap.Int(c, "hop out", &h.outPort, -1, 127)
		})
		if c.Decoding() && c.Err() == nil && len(p.path) < 2 {
			c.Fail("popup path of %d hops (need origin and destination)", len(p.path))
		}
		snap.Uint(c, "popup stage", &p.stage, uint64(stageDrain))
		c.I64("popup drain start", &p.drainStart)
		c.Bool("popup req sent", &p.reqSent)
		c.Bool("popup cancelled", &p.cancelled)
		c.Bool("popup stop pending", &p.stopPending)
		c.Bool("popup stop delivered", &p.stopDelivered)
		c.Bool("popup ack launched", &p.ackLaunched)
		c.Bool("popup ack done", &p.ackDone)
		c.Bool("popup tail left", &p.tailLeftOrigin)
		c.I64("popup deadline", &p.deadline)
		snap.Int(c, "popup retries", &p.retries, 0, math.MaxUint8)
		c.Bool("popup resend req", &p.resendReq)
		c.Bool("popup res requested", &p.resRequested)
		if c.Decoding() && c.Err() == nil {
			switch {
			case p.pkt == nil:
				c.Fail("popup %d without a packet reference", p.id)
			case u.popups[p.id] != nil:
				c.Fail("duplicate popup id %d", p.id)
			default:
				u.popups[p.id] = p
			}
		}
	})
	if c.Err() != nil {
		return c.Err()
	}
	for i := range u.nodes {
		ns := &u.nodes[i]
		if c.Decoding() {
			*ns = nodeState{}
		}
		for v := 0; v < message.NumVNets; v++ {
			snap.Int(c, "upp counter", &ns.counters[v], 0, math.MaxInt32)
			var id uint64
			if ns.entry[v] != nil {
				id = ns.entry[v].id
			}
			c.U64("upp entry popup", &id)
			if c.Decoding() && id != 0 {
				if ns.entry[v] = u.popups[id]; ns.entry[v] == nil {
					c.Fail("node %d entry references unknown popup %d", i, id)
					return c.Err()
				}
			}
			snap.Int(c, "upp rr", &ns.rr[v], 0, 128*nvc)
		}
		c.I64("upp next signal", &ns.nextSignal)
		for v := range ns.circuit {
			ce := &ns.circuit[v]
			c.Bool("circuit active", &ce.active)
			c.U64("circuit popup", &ce.popupID)
			snap.Int(c, "circuit in", &ce.inPort, -1, 127)
			snap.Int(c, "circuit out", &ce.outPort, -1, 127)
			snap.Int(c, "circuit vc", &ce.vcIdx, -1, nvc-1)
			c.Bool("circuit released", &ce.released)
		}
		c.Bool("latch valid", &ns.reqStop.valid)
		c.Bool("latch reserved", &ns.reqStop.reserved)
		snap.Uint(c, "latch kind", &ns.reqStop.kind, uint64(sigStop))
		c.U64("latch popup", &ns.reqStop.popupID)
		snap.Int(c, "latch hop", &ns.reqStop.hopIdx, 0, int64(maxPath))
		c.I64("latch ready", &ns.reqStop.ready)
		snap.Slice(c, "ack count", &ns.acks, message.NumVNets, func(a *ackEntry) {
			c.U64("ack popup", &a.popupID)
			snap.Int(c, "ack hop", &a.hopIdx, 0, int64(maxPath))
			c.I64("ack ready", &a.ready)
		})
		snap.Int(c, "ack reserved", &ns.ackRes, 0, message.NumVNets)
		for v := range ns.popupLatch {
			l := &ns.popupLatch[v]
			c.Bool("popup latch valid", &l.valid)
			c.Bool("popup latch reserved", &l.reserved)
			c.Flit(&l.flit)
			c.I64("popup latch ready", &l.ready)
		}
		if c.Err() != nil {
			return c.Err()
		}
	}
	for ci := range u.tokens {
		for v := range u.tokens[ci] {
			id := &u.tokens[ci][v]
			c.U64("token holder", id)
			if c.Decoding() && c.Err() == nil && *id != 0 && u.popups[*id] == nil {
				c.Fail("token (chiplet %d, vnet %d) held by unknown popup %d", ci, v, *id)
			}
		}
	}
	if c.Err() != nil || !c.Decoding() {
		return c.Err()
	}
	// Hop-index sanity now that every path length is known: a latched
	// signal or buffered ack with an index past its popup's path would
	// index out of range when it next moves.
	for i := range u.nodes {
		ns := &u.nodes[i]
		if ns.reqStop.valid {
			if p := u.popups[ns.reqStop.popupID]; p != nil && ns.reqStop.hopIdx >= len(p.path) {
				c.Fail("node %d signal latch hop %d past popup %d path (%d hops)",
					i, ns.reqStop.hopIdx, p.id, len(p.path))
				return c.Err()
			}
		}
		for _, a := range ns.acks {
			if p := u.popups[a.popupID]; p != nil && a.hopIdx >= len(p.path) {
				c.Fail("node %d ack hop %d past popup %d path (%d hops)",
					i, a.hopIdx, p.id, len(p.path))
				return c.Err()
			}
		}
	}
	return nil
}
