package remotectl

import (
	"math"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/snap"
)

// Snapshot describes the scheme's injection-control state as one UPWS
// section (DESIGN.md §14): the requested packets' IDs, then per boundary,
// in Attach's order, its free slots, request queue, grants, live slots per
// VNet in send order and VC holds. Decoding into a fresh network rejects
// what the fixed slot arrays cannot hold; Attach rebuilds the trees.
func (s *Scheme) Snapshot(c *snap.Codec) error {
	nvc := int64(s.net.Cfg.Router.NumVCs())
	var requested []uint64
	for i := range s.boundaries {
		for _, req := range s.boundaries[i].reqQ {
			requested = append(requested, req.pkt.ID)
		}
	}
	slices.Sort(requested)
	snap.Slice(c, "rc requested count", &requested, 1<<20, func(id *uint64) { c.U64("rc requested id", id) })
	for i := range s.boundaries {
		b := &s.boundaries[i]
		free := boundarySlots - len(b.granted)
		snap.Int(c, "rc free slots", &free, 0, boundarySlots)
		snap.Slice(c, "rc req queue len", &b.reqQ, 1<<20, func(req *request) {
			c.Packet(&req.pkt)
			c.I64("rc req ready", &req.ready)
			if c.Decoding() && c.Err() == nil && req.pkt == nil {
				c.Fail("rc request without a packet")
			}
		})
		snap.Slice(c, "rc granted count", &b.granted, boundarySlots, func(id *uint64) { c.U64("rc granted id", id) })
		if c.Decoding() && c.Err() == nil && (free+len(b.granted) != boundarySlots || !slices.IsSorted(b.granted)) {
			c.Fail("rc %d free slots beside grants %v (want %d slots, grants ascending)", free, b.granted, boundarySlots)
		}
		for v := range b.sendQ {
			snap.Slice(c, "rc send queue len", &b.sendQ[v], boundarySlots, func(k *int8) {
				if c.Decoding() {
					*k, b.live = int8(min(b.live, boundarySlots-1)), b.live+1
				}
				sl := &b.slots[*k]
				c.Packet(&sl.pkt)
				c.U64("rc slot pkt id", &sl.id)
				snap.Slice(c, "rc slot flit count", &sl.flits, 1<<20, func(f *message.Flit) { c.Flit(f) })
				snap.Int(c, "rc slot next", &sl.next, 0, math.MaxInt32)
				snap.Int(c, "rc slot outvc", &sl.outVC, -1, nvc-1)
				if c.Decoding() && c.Err() == nil {
					switch {
					case sl.pkt == nil:
						c.Fail("rc slot without a packet")
					case sl.next > len(sl.flits):
						c.Fail("rc slot next %d past %d absorbed flits", sl.next, len(sl.flits))
					case b.live > len(b.granted) || !slices.Contains(b.granted, sl.id):
						c.Fail("rc live slot %d for packet %d beside grants %v", b.live, sl.id, b.granted)
					}
				}
			})
		}
		snap.Int(c, "rc vnet rr", &b.vnetRR, 0, message.NumVNets-1)
		snap.Slice(c, "rc held count", &b.held, 1<<20, func(h *heldVC) {
			snap.Int(c, "rc held port", &h.port, 0, int64(b.r.NumPorts())-1)
			snap.Int(c, "rc held vc", &h.vc, 0, nvc-1)
		})
	}
	if !c.Decoding() {
		return c.Err()
	}
	// The gate's pending entries are rebuilt from the request queues once
	// their packets are filled in: a source has at most one request queued
	// per VNet, and the queued packets are exactly the requested ones.
	c.AfterPackets(func() {
		var queued []uint64
		for i := range s.boundaries {
			for _, req := range s.boundaries[i].reqQ {
				k := int(req.pkt.Src)*message.NumVNets + int(req.pkt.VNet)
				if uint(k) >= uint(len(s.pending)) || s.pending[k] != 0 {
					c.Fail("rc request for packet %d: source %d VNet %d invalid or already requesting", req.pkt.ID, req.pkt.Src, req.pkt.VNet)
					return
				}
				s.pending[k] = req.pkt.ID
				queued = append(queued, req.pkt.ID)
			}
		}
		if slices.Sort(queued); !slices.Equal(queued, requested) {
			c.Fail("rc requested packets %v, queued %v", requested, queued)
		}
	})
	return c.Err()
}
