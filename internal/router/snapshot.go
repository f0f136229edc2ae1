package router

import (
	"math"

	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// Snapshot serializes the router's full mutable state (DESIGN.md §14):
// every input VC's buffered flits and wormhole allocation, output
// credits and busy bits, the epoch-stamped crossbar claims, round-robin
// pointers, datapath counters and the router's split RNG stream. The
// immutable parts — topology node, config, route function, sinks — are
// rebuilt by network construction before Restore runs.
func (r *Router) Snapshot(w *snap.Writer) {
	for pi := range r.In {
		in := &r.In[pi]
		for vi := range in.VCs {
			vc := &in.VCs[vi]
			w.Uvarint(uint64(vc.count))
			for i := 0; i < int(vc.count); i++ {
				b := vc.at(i)
				w.Flit(b.flit)
				w.Varint(b.ready)
			}
			w.Uvarint(uint64(vc.State))
			w.Varint(int64(vc.OutPort))
			w.Varint(int64(vc.OutVC))
			w.Bool(vc.routed)
			w.Bool(vc.Hold)
		}
		out := &r.Out[pi]
		for vi := range out.Credits {
			w.Varint(int64(out.Credits[vi]))
			w.Bool(out.Busy[vi])
		}
		p := &r.ports[pi]
		w.Int(int(p.outRR))
		w.Varint(p.outClaimedAt)
		w.Varint(p.inClaimedAt)
		w.Int(int(p.inRR))
		w.Uvarint(p.sent)
	}
	w.Uvarint(uint64(r.upSent))
	w.Varint(r.upSentAt)
	w.Uvarint(uint64(r.downOut))
	w.Uvarint(uint64(r.fencedOut))
	w.Uvarint(r.Stats.BufferWrites)
	w.Uvarint(r.Stats.BufferReads)
	w.Uvarint(r.Stats.CrossbarTravs)
	w.Uvarint(r.Stats.LinkTravs)
	w.Uvarint(r.Stats.SARequests)
	w.Uvarint(r.Stats.SAGrants)
	w.Uvarint(r.Stats.UpFlits)
	st := r.rng.State()
	for _, s := range st {
		w.Uvarint(s)
	}
	for pi := range r.stage {
		s := &r.stage[pi]
		w.Uvarint(uint64(s.count))
		for i := 0; i < s.count; i++ {
			w.Flit(s.at(i).f)
			w.Varint(int64(s.at(i).outVC))
		}
	}
}

// Restore overwrites the router's mutable state from a snapshot written
// by Snapshot on an identically-configured router of the same arch. Flits
// are re-pushed into freshly reset VCs — the ring's head position is
// unobservable, so only FIFO order matters. The occupancy masks, claimedAt
// and the upward census are derived state, rebuilt from what was read.
func (r *Router) Restore(rd *snap.Reader) error {
	nports := len(r.In)
	r.buffered, r.occ, r.claimedAt = 0, 0, 0
	for pi := 0; pi < nports; pi++ {
		in := &r.In[pi]
		p := &r.ports[pi]
		p.buffered, p.vcMask = 0, 0
		for vi := range in.VCs {
			vc := &in.VCs[vi]
			vc.reset()
			n := rd.Len("vc flit count", r.Cfg.BufferDepth)
			if rd.Err() != nil {
				return rd.Err()
			}
			for i := 0; i < n; i++ {
				f := rd.Flit()
				ready := rd.Varint("vc flit ready")
				if rd.Err() != nil {
					return rd.Err()
				}
				vc.push(f, ready)
			}
			if n > 0 {
				p.buffered += int32(n)
				p.vcMask |= 1 << uint(vi)
				r.occ |= 1 << uint(pi)
				r.buffered += int32(n)
			}
			st := rd.Uvarint("vc state")
			if rd.Err() == nil && st > uint64(VCActive) {
				rd.Fail("vc state %d out of range", st)
			}
			vc.State = VCState(st)
			vc.OutPort = topology.PortID(rd.Int("vc outport", -1, int64(nports)-1))
			vc.OutVC = int8(rd.Int("vc outvc", -1, int64(len(r.Out[pi].Credits))-1))
			vc.routed = rd.Bool("vc routed")
			vc.Hold = rd.Bool("vc hold")
		}
		out := &r.Out[pi]
		for vi := range out.Credits {
			out.Credits[vi] = int16(rd.Int("out credits", 0, int64(r.Cfg.BufferDepth)))
			out.Busy[vi] = rd.Bool("out busy")
		}
		p.outRR = int8(rd.Int("out rr", 0, int64(nports)-1))
		p.outClaimedAt = rd.Varint("out claim")
		p.inClaimedAt = rd.Varint("in claim")
		r.claimedAt = max(r.claimedAt, p.outClaimedAt, p.inClaimedAt)
		p.inRR = int8(rd.Int("in rr", 0, int64(len(in.VCs))-1))
		p.sent = rd.Uvarint("port sent")
	}
	up := rd.Uvarint("upsent mask")
	if rd.Err() == nil && up > math.MaxUint8 {
		rd.Fail("upsent mask %d out of range", up)
	}
	r.upSent = uint8(up)
	r.upSentAt = rd.Varint("upsent at")
	down := rd.Uvarint("down mask")
	if rd.Err() == nil && down > math.MaxUint32 {
		rd.Fail("down mask %d out of range", down)
	}
	r.downOut = uint32(down)
	fenced := rd.Uvarint("fenced mask")
	if rd.Err() == nil && fenced > math.MaxUint32 {
		rd.Fail("fenced mask %d out of range", fenced)
	}
	r.fencedOut = uint32(fenced)
	r.Stats.BufferWrites = rd.Uvarint("stats bufw")
	r.Stats.BufferReads = rd.Uvarint("stats bufr")
	r.Stats.CrossbarTravs = rd.Uvarint("stats xbar")
	r.Stats.LinkTravs = rd.Uvarint("stats link")
	r.Stats.SARequests = rd.Uvarint("stats sareq")
	r.Stats.SAGrants = rd.Uvarint("stats sagrant")
	r.Stats.UpFlits = rd.Uvarint("stats upflits")
	var st [4]uint64
	for i := range st {
		st[i] = rd.Uvarint("router rng")
	}
	if rd.Err() != nil {
		return rd.Err()
	}
	r.rng.SetState(st)
	r.upRouted = r.RecountUpRouted()
	r.staged = 0
	for pi := range r.stage {
		s := &r.stage[pi]
		s.head, s.count = 0, 0
		clear(s.buf)
		n := rd.Len("stage flit count", len(s.buf))
		if rd.Err() != nil {
			return rd.Err()
		}
		for i := 0; i < n; i++ {
			f := rd.Flit()
			outVC := int8(rd.Int("stage outvc", 0, int64(r.Cfg.NumVCs())-1))
			if rd.Err() != nil {
				return rd.Err()
			}
			s.push(stagedFlit{f: f, outVC: outVC})
		}
		r.staged += int32(n)
	}
	return rd.Err()
}
