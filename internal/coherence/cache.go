// Package coherence is the full-system substitute substrate: a directory
// MESI protocol over the chiplet NoC, driven by per-benchmark synthetic
// memory profiles. The paper evaluates UPP with gem5 full-system
// simulations of PARSEC and SPLASH-2; we cannot run an x86 full system, so
// this package generates the same *kind* of NoC load — request / forward /
// response messages over three virtual networks, with closed-loop
// dependencies between ejection and injection queues (the exact structure
// the Sec. V-B4 ejection-reservation proof reasons about) — from
// per-benchmark profiles of intensity, write fraction, sharing and
// working-set size.
//
// Protocol summary (directory-serialized MESI):
//
//	GetS/GetM/PutM ride VNet 0 (requests), FwdGetS/FwdGetM/Inv ride VNet 1
//	(forwards), Data/WBData/InvAck/Ack ride VNet 2 (responses). Data
//	always flows through the home directory; owners write back to the
//	directory on forwards. The directory serializes transactions per
//	block. Responses are terminating messages consumed unconditionally;
//	request processing is gated on output-queue space — the two proof
//	cases of Sec. V-B4.
//
// The cache geometry, directory count, queue limits and L2/DRAM latencies
// are Table II's, constants every run shares (system.go), and each core
// blocks on one outstanding miss; only the topology, the scheme and the
// workload profile vary between runs.
package coherence

import "uppnoc/internal/topology"

// MESI line states in an L1 cache.
type lineState uint8

const (
	invalid lineState = iota
	shared
	exclusive
	modified
)

// line is one cache block.
type line struct {
	addr  uint64
	state lineState
	lru   uint64
}

// l1Cache is a set-associative private cache.
type l1Cache struct {
	sets    [][]line
	setMask uint64
	tick    uint64
}

// newL1 builds a cache with the given geometry.
func newL1(sets, ways int) *l1Cache {
	c := &l1Cache{sets: make([][]line, sets), setMask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c
}

func (c *l1Cache) set(addr uint64) []line { return c.sets[addr&c.setMask] }

// lookup returns the line holding addr, or nil.
func (c *l1Cache) lookup(addr uint64) *line {
	s := c.set(addr)
	for i := range s {
		if s[i].state != invalid && s[i].addr == addr {
			c.tick++
			s[i].lru = c.tick
			return &s[i]
		}
	}
	return nil
}

// victim returns the line to fill addr into, preferring invalid lines,
// then non-modified LRU lines, then modified LRU lines (modified victims
// force a writeback).
func (c *l1Cache) victim(addr uint64) *line {
	s := c.set(addr)
	var bestClean, bestAny *line
	for i := range s {
		l := &s[i]
		if l.state == invalid {
			return l
		}
		if l.state != modified && (bestClean == nil || l.lru < bestClean.lru) {
			bestClean = l
		}
		if bestAny == nil || l.lru < bestAny.lru {
			bestAny = l
		}
	}
	if bestClean != nil {
		return bestClean
	}
	return bestAny
}

// install fills addr with the given state.
func (c *l1Cache) install(addr uint64, st lineState) *line {
	l := c.victim(addr)
	c.tick++
	*l = line{addr: addr, state: st, lru: c.tick}
	return l
}

// invalidate drops addr if present, returning its previous state.
func (c *l1Cache) invalidate(addr uint64) lineState {
	if l := c.lookup(addr); l != nil {
		st := l.state
		l.state = invalid
		return st
	}
	return invalid
}

// occupancy counts valid lines (tests).
func (c *l1Cache) occupancy() int {
	n := 0
	for _, s := range c.sets {
		for i := range s {
			if s[i].state != invalid {
				n++
			}
		}
	}
	return n
}

// dirState is the directory's view of a block.
type dirState uint8

const (
	dirInvalid dirState = iota
	dirShared
	dirModified
	// dirTransient: a transaction is in flight (waiting for a writeback
	// or invalidation acks); further requests queue behind it.
	dirTransient
)

// dirEntry is the directory record for one block.
type dirEntry struct {
	state   dirState
	owner   topology.NodeID
	sharers map[topology.NodeID]bool
	// transient bookkeeping
	waitAcks int32
	pendReq  []pendingReq // queued requests while transient
	cur      pendingReq   // the transaction being served
}

// pendingReq is a queued coherence request at the directory.
type pendingReq struct {
	requester topology.NodeID
	write     bool
}
