package network

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// CheckNoReleasedInFlight walks all live simulation state that can hold
// a packet pointer — router input VCs, NI injection/stream/reassembly/
// consumption structures, and undelivered event-wheel entries — and
// reports an error if any of it references a released (freelisted)
// packet. A hit means some component kept a pointer across the pool's
// single release point (NI consumption) — a reuse-after-release bug.
//
// The walk is O(system size) and intended for soak tests and the
// uppdebug build, not the per-cycle hot path.
func (n *Network) CheckNoReleasedInFlight() error {
	bad := func(where string, p *message.Packet) error {
		return fmt.Errorf("network: released packet %d (gen %d) still referenced by %s",
			p.ID, p.Generation(), where)
	}
	for _, r := range n.Routers {
		for port := range r.Node.Ports {
			for vcIdx := 0; vcIdx < n.Cfg.Router.NumVCs(); vcIdx++ {
				var err error
				r.VCAt(topology.PortID(port), vcIdx).Scan(func(f message.Flit) {
					if err == nil && f.Pkt.Released() {
						err = bad(fmt.Sprintf("router %d port %d vc %d", r.ID, port, vcIdx), f.Pkt)
					}
				})
				if err != nil {
					return err
				}
			}
		}
		var err error
		r.ScanStaged(func(f message.Flit) {
			if err == nil && f.Pkt.Released() {
				err = bad(fmt.Sprintf("router %d staging", r.ID), f.Pkt)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, ni := range n.NIs {
		for v := range ni.injQ {
			q := &ni.injQ[v]
			for i := 0; i < q.n; i++ {
				if p := q.buf[(q.head+i)%len(q.buf)]; p.Released() {
					return bad(fmt.Sprintf("ni %d injQ[%d]", ni.Node, v), p)
				}
			}
			if ni.active[v] && ni.streams[v].pkt.Released() {
				return bad(fmt.Sprintf("ni %d stream[%d]", ni.Node, v), ni.streams[v].pkt)
			}
		}
		for i := range ni.asm {
			if p := ni.asm[i].pkt; p != nil && p.Released() {
				return bad(fmt.Sprintf("ni %d reassembly slot %d", ni.Node, i), p)
			}
		}
		for i := range ni.complete {
			if p := ni.complete[i].pkt; p.Released() {
				return bad(fmt.Sprintf("ni %d completion queue entry %d", ni.Node, i), p)
			}
		}
	}
	n.flush()
	for s := range n.wheel {
		for i := range n.wheel[s] {
			e := &n.wheel[s][i]
			if e.kind == evFlit && e.flit.Pkt.Released() {
				return bad(fmt.Sprintf("wheel slot %d entry %d", s, i), e.flit.Pkt)
			}
		}
	}
	return nil
}
