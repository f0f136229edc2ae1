package remotectl

import (
	"math"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/snap"
)

// Snapshot describes the scheme's injection-control state as one UPWS
// section (DESIGN.md §14), written or — on an identically-configured
// system — overwritten by the codec: per-boundary slot occupancy, pending
// reservation requests, grants, absorbed packets mid-stream and VC holds,
// plus the global requested set. Boundaries are visited in Attach's
// construction order (chiplet order, then boundary order), which both
// directions share; the permission trees are immutable and rebuilt by
// Attach.
func (s *Scheme) Snapshot(c *snap.Codec) error {
	nvc := int64(s.net.Cfg.Router.NumVCs())
	idSet(c, "rc requested", &s.requested)
	for _, ch := range s.net.Topo.Chiplets {
		for _, bn := range ch.Boundary {
			b := s.boundaries[bn]
			snap.Int(c, "rc free slots", &b.free, 0, boundarySlots)
			snap.Slice(c, "rc req queue len", &b.reqQ, 1<<20, func(req *request) {
				c.Packet(&req.pkt)
				c.I64("rc req ready", &req.ready)
				if c.Decoding() && c.Err() == nil && req.pkt == nil {
					c.Fail("rc request without a packet")
				}
			})
			idSet(c, "rc granted", &b.granted)
			// The absorbing map's entries are exactly the slots queued in
			// sendQ (created and retired together), so only sendQ is
			// serialized and decoding rebuilds the map from it.
			if c.Decoding() {
				b.absorbing = make(map[uint64]*slot)
			}
			for v := range b.sendQ {
				snap.Slice(c, "rc send queue len", &b.sendQ[v], boundarySlots, func(pp **slot) {
					if c.Decoding() {
						*pp = &slot{}
					}
					sl := *pp
					c.Packet(&sl.pkt)
					// The packet's ID rides along explicitly: at restore
					// time the reference is still an unfilled placeholder
					// (the packet table decodes last), but the absorbing
					// map needs its key now.
					var pktID uint64
					if !c.Decoding() {
						pktID = sl.pkt.ID
					}
					c.U64("rc slot pkt id", &pktID)
					snap.Slice(c, "rc slot flit count", &sl.flits, 1<<20, func(f *message.Flit) { c.Flit(f) })
					snap.Int(c, "rc slot next", &sl.next, 0, math.MaxInt32)
					snap.Int(c, "rc slot outvc", &sl.outVC, -1, nvc-1)
					if c.Decoding() && c.Err() == nil {
						switch {
						case sl.pkt == nil:
							c.Fail("rc slot without a packet")
						case sl.next > len(sl.flits):
							c.Fail("rc slot next %d past %d absorbed flits", sl.next, len(sl.flits))
						default:
							b.absorbing[pktID] = sl
						}
					}
				})
			}
			snap.Int(c, "rc vnet rr", &b.vnetRR, 0, message.NumVNets-1)
			snap.Slice(c, "rc held count", &b.held, 1<<20, func(h *heldVC) {
				snap.Int(c, "rc held port", &h.port, 0, 127)
				snap.Int(c, "rc held vc", &h.vc, 0, nvc-1)
			})
			if c.Err() != nil {
				return c.Err()
			}
		}
	}
	return nil
}

// idSet walks a set of packet IDs as a count and the IDs, written
// ascending; decoding replaces the set.
func idSet(c *snap.Codec, what string, set *map[uint64]bool) {
	var ids []uint64
	if c.Decoding() {
		*set = make(map[uint64]bool)
	} else {
		for id := range *set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
	}
	label := what + " id"
	snap.Slice(c, what+" count", &ids, 1<<20, func(id *uint64) {
		if c.U64(label, id); c.Decoding() {
			(*set)[*id] = true
		}
	})
}
