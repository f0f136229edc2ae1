package router

import (
	"math"

	"uppnoc/internal/snap"
)

// Snapshot describes the router's full mutable state (DESIGN.md §14) to
// a snap.Codec, which writes it or overwrites it: every input VC's
// buffered flits and wormhole allocation, output credits and busy bits,
// the epoch-stamped crossbar claims, round-robin pointers, datapath
// counters and the router's split RNG stream. The immutable parts —
// topology node, config, route function, sinks — are rebuilt by network
// construction before a restore runs, on an identically-configured router
// of the same arch. Decoding re-pushes flits into freshly reset VCs — the
// ring's head position is unobservable, so only FIFO order matters — and
// rebuilds the derived state (occupancy masks, claimedAt, the upward
// census, the staged count) from what was read.
func (r *Router) Snapshot(c *snap.Codec) error {
	nports := len(r.In)
	if c.Decoding() {
		r.buffered, r.occ, r.claimedAt = 0, 0, 0
	}
	for pi := 0; pi < nports; pi++ {
		in := &r.In[pi]
		p := &r.ports[pi]
		if c.Decoding() {
			p.buffered, p.vcMask = 0, 0
		}
		for vi := range in.VCs {
			vc := &in.VCs[vi]
			n := c.Len("vc flit count", vc.Len(), r.Cfg.BufferDepth)
			if c.Decoding() {
				vc.reset()
			}
			for i := 0; i < n; i++ {
				var b bufFlit
				if !c.Decoding() {
					b = *vc.at(i)
				}
				c.Flit(&b.flit)
				c.I64("vc flit ready", &b.ready)
				if c.Err() != nil {
					return c.Err()
				}
				if c.Decoding() {
					vc.push(b.flit, b.ready)
				}
			}
			if c.Decoding() && n > 0 {
				p.buffered += int32(n)
				p.vcMask |= 1 << uint(vi)
				r.occ |= 1 << uint(pi)
				r.buffered += int32(n)
			}
			snap.Uint(c, "vc state", &vc.State, uint64(VCActive))
			snap.Int(c, "vc outport", &vc.OutPort, -1, int64(nports)-1)
			snap.Int(c, "vc outvc", &vc.OutVC, -1, int64(len(r.Out[pi].Credits))-1)
			c.Bool("vc routed", &vc.routed)
			c.Bool("vc hold", &vc.Hold)
		}
		out := &r.Out[pi]
		for vi := range out.Credits {
			snap.Int(c, "out credits", &out.Credits[vi], 0, int64(r.Cfg.BufferDepth))
			c.Bool("out busy", &out.Busy[vi])
		}
		snap.Int(c, "out rr", &p.outRR, 0, int64(nports)-1)
		c.I64("out claim", &p.outClaimedAt)
		c.I64("in claim", &p.inClaimedAt)
		if c.Decoding() {
			r.claimedAt = max(r.claimedAt, p.outClaimedAt, p.inClaimedAt)
		}
		snap.Int(c, "in rr", &p.inRR, 0, int64(len(in.VCs))-1)
		c.U64("port sent", &p.sent)
	}
	snap.Uint(c, "upsent mask", &r.upSent, math.MaxUint8)
	c.I64("upsent at", &r.upSentAt)
	snap.Uint(c, "down mask", &r.downOut, math.MaxUint32)
	snap.Uint(c, "fenced mask", &r.fencedOut, math.MaxUint32)
	c.U64("stats bufw", &r.Stats.BufferWrites)
	c.U64("stats bufr", &r.Stats.BufferReads)
	c.U64("stats xbar", &r.Stats.CrossbarTravs)
	c.U64("stats link", &r.Stats.LinkTravs)
	c.U64("stats sareq", &r.Stats.SARequests)
	c.U64("stats sagrant", &r.Stats.SAGrants)
	c.U64("stats upflits", &r.Stats.UpFlits)
	c.RNG("router rng", &r.rng)
	if c.Err() != nil {
		return c.Err()
	}
	if c.Decoding() {
		r.upRouted = r.RecountUpRouted()
		r.staged = 0
	}
	for pi := range r.stage {
		s := &r.stage[pi]
		n := c.Len("stage flit count", s.count, len(s.buf))
		if c.Decoding() {
			s.head, s.count = 0, 0
			clear(s.buf)
			r.staged += int32(n)
		}
		for i := 0; i < n; i++ {
			var sf stagedFlit
			if !c.Decoding() {
				sf = *s.at(i)
			}
			c.Flit(&sf.f)
			snap.Int(c, "stage outvc", &sf.outVC, 0, int64(r.Cfg.NumVCs())-1)
			if c.Err() != nil {
				return c.Err()
			}
			if c.Decoding() {
				s.push(sf)
			}
		}
	}
	return c.Err()
}
