package coherence

import (
	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Directory is one interposer-resident MESI directory slice. It serializes
// transactions per block: while a block is transient (waiting for a
// writeback or invalidation acks), further requests for it queue inside
// the directory.
type Directory struct {
	sys    *System
	node   topology.NodeID
	blocks map[uint64]*dirEntry
	// l2 is the shared L2 bank co-located with this directory slice; it
	// decides whether a data response pays L2-hit or DRAM latency.
	l2   *l1Cache
	outQ []delayedPkt
}

// delayedPkt is an outgoing message plus the cycle its memory access
// completes (L2 hit or DRAM fill).
type delayedPkt struct {
	pkt   *message.Packet
	ready sim.Cycle
}

func (d *Directory) entry(addr uint64) *dirEntry {
	e := d.blocks[addr]
	if e == nil {
		e = &dirEntry{state: dirInvalid, sharers: make(map[topology.NodeID]bool)}
		d.blocks[addr] = e
	}
	return e
}

func (d *Directory) send(p *message.Packet) {
	d.outQ = append(d.outQ, delayedPkt{pkt: p})
}

// sendAfter queues a message that becomes injectable after a memory-access
// delay.
func (d *Directory) sendAfter(p *message.Packet, cycle sim.Cycle, delay int) {
	d.outQ = append(d.outQ, delayedPkt{pkt: p, ready: cycle + sim.Cycle(delay)})
}

func (d *Directory) drainOut(cycle sim.Cycle) {
	ni := d.sys.Net.NI(d.node)
	kept := d.outQ[:0]
	for _, dp := range d.outQ {
		if dp.ready <= cycle && ni.InjSpace(dp.pkt.VNet, injQueueCap) {
			ni.Enqueue(dp.pkt, cycle)
		} else {
			kept = append(kept, dp)
		}
	}
	d.outQ = kept
}

// consume is the NI Consumer for the directory. Requests are deferred
// while the output queue is congested (they generate responses — the
// Sec. V-B4 proof's second case); responses (writebacks, invalidation
// acks) are consumed unconditionally (first case).
func (d *Directory) consume(p *message.Packet, cycle sim.Cycle) bool {
	switch p.Class {
	case message.ClassGetS, message.ClassGetM:
		if len(d.outQ) >= outQueueGate {
			return false
		}
		d.request(p.Addr, pendingReq{requester: p.Src, write: p.Class == message.ClassGetM}, cycle)
		return true
	case message.ClassPutM:
		if len(d.outQ) >= outQueueGate {
			return false
		}
		d.putM(p.Addr, p.Src, cycle)
		return true
	case message.ClassData:
		// Owner writeback for an in-flight forward.
		d.writebackArrived(p.Addr, cycle)
		return true
	case message.ClassDataAck:
		// Invalidation ack.
		d.ackArrived(p.Addr, cycle)
		return true
	}
	panic("coherence: directory received unexpected class")
}

// request starts or queues a transaction for addr.
func (d *Directory) request(addr uint64, req pendingReq, cycle sim.Cycle) {
	e := d.entry(addr)
	if e.state == dirTransient {
		e.pendReq = append(e.pendReq, req)
		return
	}
	d.serve(addr, e, req, cycle)
}

// serve executes one request against a stable entry.
func (d *Directory) serve(addr uint64, e *dirEntry, req pendingReq, cycle sim.Cycle) {
	switch e.state {
	case dirInvalid:
		// Grant Exclusive on reads (the E of MESI), Modified on writes.
		d.grant(addr, req, 1, cycle)
		e.state = dirModified
		e.owner = req.requester
	case dirShared:
		if !req.write {
			e.sharers[req.requester] = true
			d.grant(addr, req, 0, cycle)
			return
		}
		// Invalidate all other sharers, then grant M. Sharers are
		// invalidated in node order so runs are deterministic.
		var targets []topology.NodeID
		for s := range e.sharers {
			if s != req.requester {
				targets = append(targets, s)
			}
		}
		sortNodes(targets)
		n := int32(len(targets))
		for _, s := range targets {
			d.send(d.sys.newPacket(d.node, s, message.ClassInv, addr))
		}
		if n == 0 {
			d.grant(addr, req, 0, cycle)
			e.state = dirModified
			e.owner = req.requester
			clear(e.sharers)
			return
		}
		e.state = dirTransient
		e.cur = req
		e.waitAcks = n
	case dirModified:
		if e.owner == req.requester {
			// The owner re-requesting means it evicted the line and its
			// PutM is still in flight (the only way an owner loses a line
			// under explicit writebacks). Wait for that writeback, then
			// serve — granting immediately would race the PutM into
			// wrongly invalidating the fresh ownership.
			e.state = dirTransient
			e.cur = req
			e.waitAcks = 1
			return
		}
		class := message.ClassFwdGetS
		if req.write {
			class = message.ClassFwdGetM
		}
		fwd := d.sys.newPacket(d.node, e.owner, class, addr)
		fwd.AuxNode = req.requester
		d.send(fwd)
		e.state = dirTransient
		e.cur = req
		e.waitAcks = 1
	default:
		panic("coherence: serve on transient entry")
	}
}

// grant sends Data to the requester after the memory access completes:
// L2-hit latency when the block is resident in this directory slice's L2
// bank, DRAM latency otherwise (the block is installed on the fill).
// exclusive=1 marks an E grant for reads.
func (d *Directory) grant(addr uint64, req pendingReq, exclusive int32, cycle sim.Cycle) {
	data := d.sys.newPacket(d.node, req.requester, message.ClassData, addr)
	if !req.write {
		data.AuxCount = exclusive
	}
	delay := l2HitLatency
	if d.l2.lookup(addr) == nil {
		delay = dramLatency
		d.l2.install(addr, shared)
		d.sys.L2Misses++
	} else {
		d.sys.L2Hits++
	}
	d.sendAfter(data, cycle, delay)
}

// putM handles an owner writeback request.
func (d *Directory) putM(addr uint64, from topology.NodeID, cycle sim.Cycle) {
	e := d.entry(addr)
	// Always ack so the sender's transaction retires.
	d.send(d.sys.newPacket(d.node, from, message.ClassDataAck, addr))
	switch e.state {
	case dirModified:
		if e.owner == from {
			e.state = dirInvalid
			e.owner = topology.InvalidNode
			// The writeback lands in the L2 bank.
			d.l2.install(addr, modified)
		}
		// Stale PutM from a previous owner: drop.
	case dirTransient:
		if e.owner == from && e.waitAcks > 0 && len(e.sharers) == 0 {
			// The PutM crossed our forward: it carries the data the
			// forward would have written back. The owner will ignore the
			// forward (line absent).
			d.writebackArrived(addr, cycle)
		}
	}
}

// writebackArrived completes a forward-based transaction.
func (d *Directory) writebackArrived(addr uint64, cycle sim.Cycle) {
	e := d.entry(addr)
	if e.state != dirTransient || e.waitAcks <= 0 {
		return // duplicate (PutM raced the forward's writeback): drop
	}
	e.waitAcks--
	if e.waitAcks > 0 {
		return
	}
	req := e.cur
	d.l2.install(addr, modified) // the owner's writeback refreshes the L2 bank
	d.grant(addr, req, 0, cycle)
	if req.write {
		e.state = dirModified
		e.owner = req.requester
		clear(e.sharers)
	} else {
		e.state = dirShared
		e.sharers[e.owner] = true
		e.sharers[req.requester] = true
		e.owner = topology.InvalidNode
	}
	d.completePending(addr, e, cycle)
}

// ackArrived counts one invalidation ack.
func (d *Directory) ackArrived(addr uint64, cycle sim.Cycle) {
	e := d.entry(addr)
	if e.state != dirTransient || e.waitAcks <= 0 {
		return
	}
	e.waitAcks--
	if e.waitAcks > 0 {
		return
	}
	req := e.cur
	d.grant(addr, req, 0, cycle)
	e.state = dirModified
	e.owner = req.requester
	clear(e.sharers)
	d.completePending(addr, e, cycle)
}

// completePending replays requests queued while the block was transient.
func (d *Directory) completePending(addr uint64, e *dirEntry, cycle sim.Cycle) {
	for len(e.pendReq) > 0 && e.state != dirTransient {
		req := e.pendReq[0]
		e.pendReq = e.pendReq[1:]
		d.serve(addr, e, req, cycle)
	}
}

// sortNodes orders node IDs ascending (insertion sort; the slices are
// tiny).
func sortNodes(ns []topology.NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j-1] > ns[j]; j-- {
			ns[j-1], ns[j] = ns[j], ns[j-1]
		}
	}
}
