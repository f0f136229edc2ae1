package coherence

import (
	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// mshrEntry tracks the one outstanding miss.
type mshrEntry struct {
	addr  uint64
	valid bool
	write bool
	// invalidated: an Inv for this address overtook the (read) fill; the
	// returning data is already stale and must not be cached.
	invalidated bool
}

// Core models one processing element: a blocking core with a private L1
// and one outstanding miss. The synthetic profiles' miss rates are far
// above real PARSEC's, so deeper MSHRs would push the NoC into saturation
// — a regime the paper's full-system runs never enter.
type Core struct {
	sys   *System
	node  topology.NodeID
	index int
	l1    *l1Cache
	rng   *sim.RNG

	completed int
	mshr      mshrEntry

	// outQ holds generated messages until NI injection space frees up.
	outQ []*message.Packet
}

func (c *Core) done() bool {
	return c.completed >= c.sys.Work.AccessesPerCore && !c.mshr.valid && len(c.outQ) == 0
}

// missing reports whether addr is the outstanding miss.
func (c *Core) missing(addr uint64) bool { return c.mshr.valid && c.mshr.addr == addr }

// tick issues at most one memory access per cycle according to the
// workload profile, as long as no miss is outstanding.
func (c *Core) tick(cycle sim.Cycle) {
	if c.mshr.valid {
		return // blocked on the outstanding miss
	}
	if c.completed >= c.sys.Work.AccessesPerCore {
		return // quota covered
	}
	if len(c.outQ) >= outQueueGate {
		return // eviction backlog; let it drain first
	}
	if !c.rng.Bernoulli(c.sys.Work.AccessProb) {
		return
	}
	addr := c.sys.Work.address(c.index, c.rng)
	write := c.rng.Bernoulli(c.sys.Work.WriteFrac)
	l := c.l1.lookup(addr)
	switch {
	case l != nil && (!write || l.state == modified || l.state == exclusive):
		// Hit (reads in any valid state; writes in M/E upgrade silently).
		if write {
			l.state = modified
		}
		c.sys.L1Hits++
		c.completed++
	case l != nil && write:
		// Write to a Shared line: upgrade miss.
		c.sys.L1Misses++
		c.miss(addr, true)
	default:
		c.sys.L1Misses++
		c.miss(addr, write)
	}
}

// miss allocates an MSHR and sends the coherence request for addr.
func (c *Core) miss(addr uint64, write bool) {
	class := message.ClassGetS
	if write {
		class = message.ClassGetM
	}
	c.send(c.sys.newPacket(c.node, c.sys.homeDir(addr), class, addr))
	c.mshr = mshrEntry{addr: addr, valid: true, write: write}
}

// send queues a message for injection.
func (c *Core) send(p *message.Packet) { c.outQ = append(c.outQ, p) }

// drainOut moves queued messages into the NI while it has space.
func (c *Core) drainOut(cycle sim.Cycle) {
	ni := c.sys.Net.NI(c.node)
	kept := c.outQ[:0]
	for _, p := range c.outQ {
		if ni.InjSpace(p.VNet, injQueueCap) {
			ni.Enqueue(p, cycle)
		} else {
			kept = append(kept, p)
		}
	}
	c.outQ = kept
}

// consume is the NI Consumer: it implements the PE side of the protocol
// and the consumption rules of the Sec. V-B4 proof — responses are always
// consumed; forward processing is deferred while the output queue is
// congested (it must generate a writeback).
func (c *Core) consume(p *message.Packet, cycle sim.Cycle) bool {
	switch p.Class {
	case message.ClassData:
		c.fill(p)
		return true
	case message.ClassDataAck:
		return true // writeback acknowledged
	case message.ClassInv:
		// Invalidation: ack to the directory. Cheap, but it generates a
		// message — defer under backlog (still consumed eventually). An
		// Inv must never wait on our own outstanding miss: the miss may be
		// queued at the directory behind the very transaction this Inv
		// serves (deferring would deadlock the protocol). Instead, note
		// the race and drop the stale line at fill time.
		if len(c.outQ) >= outQueueGate {
			return false
		}
		if c.missing(p.Addr) && !c.mshr.write {
			c.mshr.invalidated = true
		}
		c.l1.invalidate(p.Addr)
		c.send(c.sys.newPacket(c.node, p.Src, message.ClassDataAck, p.Addr))
		return true
	case message.ClassFwdGetS:
		if c.missing(p.Addr) {
			// The forward raced ahead of our fill on another VNet: we are
			// about to become the owner the directory is forwarding to.
			// Defer until the Data lands (responses are never blocked by
			// forwards, so this cannot deadlock).
			return false
		}
		if len(c.outQ) >= outQueueGate {
			return false
		}
		if l := c.l1.lookup(p.Addr); l != nil && (l.state == modified || l.state == exclusive) {
			l.state = shared
			c.sys.Writebacks++
			c.send(c.sys.newPacket(c.node, p.Src, message.ClassData, p.Addr))
		}
		// Absent line: our PutM is in flight and will serve as the
		// writeback at the directory.
		return true
	case message.ClassFwdGetM:
		if c.missing(p.Addr) {
			return false // raced ahead of our fill; see FwdGetS
		}
		if len(c.outQ) >= outQueueGate {
			return false
		}
		if l := c.l1.lookup(p.Addr); l != nil && (l.state == modified || l.state == exclusive) {
			c.l1.invalidate(p.Addr)
			c.sys.Writebacks++
			c.send(c.sys.newPacket(c.node, p.Src, message.ClassData, p.Addr))
		}
		return true
	}
	panic("coherence: core received unexpected class")
}

// fill completes the outstanding miss.
func (c *Core) fill(p *message.Packet) {
	if !c.missing(p.Addr) {
		panic("coherence: unexpected data response")
	}
	e := c.mshr
	c.mshr = mshrEntry{}
	st := shared
	switch {
	case e.write:
		st = modified
	case p.AuxCount == 1:
		st = exclusive
	}
	if l := c.l1.lookup(p.Addr); l != nil {
		// Upgrade completion: the line is already resident (S -> M).
		l.state = st
		c.completed++
		return
	}
	if e.invalidated {
		// An invalidation overtook this (read) fill: count the access but
		// do not keep the stale line.
		c.completed++
		return
	}
	// Evicting a dirty or exclusive victim requires a writeback so the
	// directory's owner view stays exact (silent E evictions would wedge
	// a later forward). A victim with an outstanding miss of its own
	// cannot occur: MSHR lines are absent from the cache by definition.
	v := c.l1.victim(p.Addr)
	if v.state == modified || v.state == exclusive {
		c.sys.Writebacks++
		c.send(c.sys.newPacket(c.node, c.sys.homeDir(v.addr), message.ClassPutM, v.addr))
		v.state = invalid
	}
	c.l1.install(p.Addr, st)
	c.completed++
}
