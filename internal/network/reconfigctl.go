package network

import (
	"fmt"

	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// This file is the network half of dynamic reconfiguration (DESIGN.md
// §15): routing-epoch transitions, link fencing toward a permanent cut,
// and the persistent kill/revive primitives. The orchestration — when to
// fence, when a link is quiet, whether the old and new routing functions
// may coexist under load — lives in internal/reconfig; the network only
// provides mechanism, keeping every step deterministic and kernel
// bit-identical.

// RouteEpoch returns the current routing epoch. Packets are stamped with
// it at head injection and keep routing under their stamped epoch's
// tables until delivery or migration.
func (n *Network) RouteEpoch() uint32 { return n.routeEpoch }

// TransitionActive reports whether a routing-epoch transition is in
// progress (the previous epoch's tables are still installed).
func (n *Network) TransitionActive() bool { return n.prevHier != nil }

// OldEpochLive returns the number of live packets still stamped with the
// previous routing epoch. Zero means the old epoch has drained and
// FinishRouteTransition may run. Only meaningful while TransitionActive.
func (n *Network) OldEpochLive() int64 {
	return n.epochLive[(n.routeEpoch-1)&1].Load()
}

// BeginRouteTransition installs local as the new per-layer routing
// function under a fresh routing epoch, keeping the previous epoch's
// tables live for packets already in flight. With hold set, new packet
// streams are fenced until FinishRouteTransition (the epoch-based
// transition for CDG-incompatible routing pairs); without it, injection
// continues under the new tables immediately (the drainless transition
// for proven-compatible pairs). At most one transition may be active.
func (n *Network) BeginRouteTransition(local routing.Local, hold bool) {
	if n.prevHier != nil {
		panic("network: BeginRouteTransition with a transition already active")
	}
	n.routeEpoch++
	n.prevHier = n.hier
	n.hier = routing.NewHierarchical(n.Topo, local)
	n.injectHold = hold
	n.Stats.Reconfigs++
	if hold {
		n.Stats.ReconfigsEpoch++
	} else {
		n.Stats.ReconfigsDrainless++
	}
}

// FinishRouteTransition retires the previous epoch's tables and lifts the
// injection hold. The caller (the reconfiguration engine) must have
// observed OldEpochLive() == 0: a surviving old-epoch packet would route
// with no tables to consult.
func (n *Network) FinishRouteTransition() {
	if n.prevHier == nil {
		panic("network: FinishRouteTransition without an active transition")
	}
	if live := n.OldEpochLive(); live != 0 {
		panic(fmt.Sprintf("network: FinishRouteTransition with %d old-epoch packets live", live))
	}
	n.prevHier = nil
	n.injectHold = false
}

// SetLinkFenced raises or clears the fence on l: both endpoint output
// ports stop granting new wormholes (in-flight worms finish — wormhole
// atomicity), and route computations that would cross the fence migrate
// their packet onto the current epoch instead (see Route). Fencing is the
// drain step between announcing a permanent cut and applying it.
func (n *Network) SetLinkFenced(l *topology.Link, fenced bool) {
	if n.Routers[l.A].PortFenced(l.APort) == fenced {
		return
	}
	n.Routers[l.A].SetPortFenced(l.APort, fenced)
	n.Routers[l.B].SetPortFenced(l.BPort, fenced)
	if fenced {
		n.fencedLinks++
	} else {
		n.fencedLinks--
	}
}

// UnrouteFencedHeads rescinds the routes of waiting wormhole heads bound
// for a fenced port at both endpoints of l, so their next route
// computation migrates them onto the current epoch's tables. Returns the
// number of heads migrated; the count is folded into Stats by the caller
// (the engine), keeping it kernel-identical.
func (n *Network) UnrouteFencedHeads(l *topology.Link) int {
	return n.Routers[l.A].UnrouteFencedHeads() + n.Routers[l.B].UnrouteFencedHeads()
}

// LinkQuiet reports that no buffered flit at either endpoint still needs
// l: no input VC holds an allocation onto the fenced ports and (for the
// output-queued router) the staging FIFOs behind them are empty. Flits
// already on the wire are unaffected by a cut — delivery was scheduled at
// send time — so quiet endpoints make the cut safe.
func (n *Network) LinkQuiet(l *topology.Link) bool {
	return n.Routers[l.A].PortQuiet(l.APort) && n.Routers[l.B].PortQuiet(l.BPort)
}

// KillLink applies a persistent link failure: the link goes Faulty (a
// routing-level property — rebuilt tables exclude it) and both endpoint
// ports close permanently. Unlike SetLinkDown this is not a transient
// flap: it does not count toward LinkFlaps and is never cleared by a
// fault plan. The caller is responsible for having fenced and drained the
// link first; any fence stays up so stale old-epoch lookups keep
// migrating instead of wedging against the closed port.
func (n *Network) KillLink(l *topology.Link) {
	n.Topo.SetFaulty(l, true)
	l.Down = true
	n.Routers[l.A].SetPortDown(l.APort, true)
	n.Routers[l.B].SetPortDown(l.BPort, true)
	n.Stats.LinksKilled++
}

// ReviveLink heals a Faulty link (the hot-add event): the link carries
// traffic again once a routing transition installs tables that use it.
func (n *Network) ReviveLink(l *topology.Link) {
	n.Topo.SetFaulty(l, false)
	l.Down = false
	n.Routers[l.A].SetPortDown(l.APort, false)
	n.Routers[l.B].SetPortDown(l.BPort, false)
	n.Stats.LinksRevived++
}

// AddHeadsMigrated folds an UnrouteFencedHeads count into Stats.
func (n *Network) AddHeadsMigrated(count int) {
	n.Stats.HeadsMigrated += uint64(count)
}

// RestoreRouteTables installs the current and previous routing tables
// during a snapshot restore. The epoch scalars were restored from the
// snapshot body; the tables themselves are re-derived by the
// reconfiguration engine (a SnapshotExtra) from its replayed event
// cursor, because routing tables are pure functions of the topology's
// Faulty set at each epoch.
func (n *Network) RestoreRouteTables(cur, prev *routing.Hierarchical) {
	if cur != nil {
		n.hier = cur
	}
	n.prevHier = prev
}

// Restoring reports that the network is mid-ReadSnapshot: the attached
// fault injector's BeginCycle is being replayed purely to resync cursors,
// so state-changing engines must not re-apply events.
func (n *Network) Restoring() bool { return n.restoring }
