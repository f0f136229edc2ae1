package network

import (
	"fmt"
	"io"
	"math"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// UPWS is the versioned binary snapshot format of a running simulation
// (DESIGN.md §14). A snapshot taken between cycles captures every bit
// of mutable state that influences future behavior — router pipelines,
// NIs, the event wheel, the scheme's protocol FSMs, the packet pool and
// all RNG streams — so that a restored network replays the uninterrupted
// run bit-identically (flit traces, stats, popups) under every kernel,
// shard count and router arch.
const (
	snapMagic = "UPWS"
	// Version 2 added the routing-epoch scalars (routeEpoch, injectHold,
	// epochLive) and the per-packet Epoch field for dynamic
	// reconfiguration.
	snapVersion = 2
	// snapTrailer closes the stream; ReadSnapshot additionally requires
	// zero trailing bytes.
	snapTrailer = 0x5eed
)

// SnapshotExtra is a component outside the Network whose cursor state
// rides along in a snapshot — the traffic generator's per-core RNGs,
// the collective workload engine's op cursors. Extras are serialized
// after the network sections, labeled so a restore with mismatched
// extras fails structurally instead of misparsing.
type SnapshotExtra interface {
	// SnapshotLabel names the extra ("traffic", "workload"); write and
	// read sides must agree.
	SnapshotLabel() string
	// SnapshotState describes the extra's state to the codec, which
	// appends it or overwrites it from a snapshot.
	SnapshotState(c *snap.Codec) error
}

// WriteSnapshot serializes the network's full state to w, between
// cycles (call it after Step/Run returns, never from inside a hook).
func (n *Network) WriteSnapshot(out io.Writer, extras ...SnapshotExtra) error {
	if n.inNIWalk {
		return fmt.Errorf("network: snapshot mid-cycle (call between Steps)")
	}
	w := snap.NewWriter()
	if err := n.snapshot(w.Codec(), extras); err != nil {
		return err
	}
	_, err := out.Write(w.Bytes())
	return err
}

// ReadSnapshot overwrites the state of a freshly constructed network —
// same topology, config and scheme type as the writer — from snapshot
// bytes. Corrupt or truncated input yields a structured error, never a
// panic. If a fault injector is attached, its flap state is resynced to
// the restored cycle.
func (n *Network) ReadSnapshot(data []byte, extras ...SnapshotExtra) (err error) {
	defer func() {
		// Backstop: the readers bounds-check everything, but a decode
		// path that trips a simulator invariant (e.g. a freelist check)
		// must still surface as an error for the fuzz contract.
		if r := recover(); r != nil {
			err = fmt.Errorf("network: snapshot decode panicked: %v", r)
		}
	}()
	r := snap.NewReader(data)
	if err := n.snapshot(r.Codec(), extras); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("network: %d trailing bytes after snapshot", r.Remaining())
	}
	return nil
}

// snapshot is the one description of the container, walked by
// WriteSnapshot and ReadSnapshot alike: header, routers and NIs in node
// order, event wheel, scheme, packet pool, network scalars, the packet
// table, statistics, extras, trailer.
func (n *Network) snapshot(c *snap.Codec, extras []SnapshotExtra) error {
	cycle := n.cycle
	if err := n.snapshotHeader(c, &cycle); err != nil {
		return err
	}
	for _, r := range n.Routers {
		if err := r.Snapshot(c); err != nil {
			return err
		}
	}
	for _, ni := range n.NIs {
		if err := ni.snapshot(c); err != nil {
			return err
		}
	}
	if err := n.snapshotWheel(c); err != nil {
		return err
	}
	// Scheme protocol state (UPP popup machines, remotectl holds...).
	if err := n.scheme.Snapshot(c); err != nil {
		return err
	}

	// Packet pool: freelist in order (through the table, so stale
	// pointers held elsewhere keep their identity) plus counters.
	pool := n.PacketPool()
	var free []*message.Packet
	if !c.Decoding() {
		pool.ForEachFree(func(p *message.Packet) { free = append(free, p) })
	}
	snap.Slice(c, "pool free count", &free, c.InputLen(), func(p **message.Packet) { c.Packet(p) })
	if c.Err() != nil {
		return c.Err()
	}
	if c.Decoding() {
		if slices.Contains(free, nil) {
			return fmt.Errorf("network: nil packet in snapshot freelist")
		}
		pool.SetFree(free)
	}
	c.U64("pool gets", &pool.Stats.Gets)
	c.U64("pool reuses", &pool.Stats.Reuses)
	c.U64("pool puts", &pool.Stats.Puts)

	// Network scalars and active sets, each set as a count and its IDs
	// (written ascending; read in any order, a repeated one is corrupt).
	c.U64("next packet id", &n.nextID)
	c.I64("last eject", &n.lastEject)
	for k, set := range []*awakeSet{&n.routers, &n.nis} {
		what := []string{"router", "NI"}[k]
		count := c.Len(what+" awake count", set.count, n.Topo.NumNodes())
		if c.Decoding() {
			set.clear()
		}
		id, label := topology.NodeID(-1), "awake "+what+" id"
		for i := 0; i < count; i++ {
			if !c.Decoding() {
				id = set.next(id)
			}
			snap.Int(c, label, &id, 0, int64(n.Topo.NumNodes())-1)
			if c.Err() != nil {
				return c.Err()
			}
			if c.Decoding() {
				if set.has(id) {
					return fmt.Errorf("network: duplicate awake %s %d in snapshot", what, id)
				}
				set.add(id)
			}
		}
	}
	if c.Decoding() {
		// AwakeRouterIDs keeps matching the set until the next retirement.
		n.awakeIDs = n.awakeIDs[:0]
		for id := n.routers.next(-1); id >= 0; id = n.routers.next(id) {
			n.awakeIDs = append(n.awakeIDs, int32(id))
		}
	}
	c.RNG("network rng", n.rng)
	if c.Err() != nil {
		return c.Err()
	}

	// Reconfiguration scalars. prevHier is not serialized — the attached
	// reconfiguration engine re-derives and reinstalls both routing tables
	// from its own (serialized) event cursor when its section is decoded.
	snap.Uint(c, "route epoch", &n.routeEpoch, math.MaxUint32)
	c.Bool("inject hold", &n.injectHold)
	for i, what := range []string{"epoch live 0", "epoch live 1"} {
		live := n.epochLive[i].Load()
		c.I64(what, &live)
		if c.Decoding() {
			n.epochLive[i].Store(live)
		}
	}
	snap.Int(c, "fenced links", &n.fencedLinks, 0, int64(len(n.Topo.Links)))

	// The packet table closes every pointer-bearing section; sections
	// after it must not reference packets.
	c.PacketTable()
	if c.Err() != nil {
		return c.Err()
	}
	if c.Decoding() {
		if perr := pool.Check(); perr != nil {
			return fmt.Errorf("network: restored freelist invalid: %w", perr)
		}
		n.cycle = cycle
		// Resync an attached fault injector's flap windows to the restored
		// clock before the counters land: SetLinkDown edges during resync
		// bump Stats.LinkFlaps, which the Stats section below overwrites
		// with the writer's true counts. The restoring flag tells a
		// state-machine injector (reconfig.Engine) this BeginCycle is a
		// cursor resync, not live simulation — its own section (an extra
		// below) rebuilds the authoritative state afterwards.
		n.restoring = true
		if n.faults != nil && cycle > 0 {
			n.faults.BeginCycle(cycle - 1)
		}
		n.restoring = false
	}

	n.Stats.snapshot(c)
	n.latHist.snapshot(c)
	if c.Err() != nil {
		return c.Err()
	}
	if c.Decoding() {
		// The worker-side migration counter mirrors the folded Stats value
		// (snapshots are taken between cycles, right after a fold).
		n.routeMigrations.Store(n.Stats.RouteMigrations)
	}

	for _, ex := range extras {
		label := ex.SnapshotLabel()
		c.String("extra label", &label, 64)
		if c.Err() != nil {
			return c.Err()
		}
		if label != ex.SnapshotLabel() {
			return fmt.Errorf("network: snapshot extra %q, expected %q", label, ex.SnapshotLabel())
		}
		if err := ex.SnapshotState(c); err != nil {
			return err
		}
	}
	trailer := uint64(snapTrailer)
	c.U64("trailer", &trailer)
	if c.Err() == nil && trailer != snapTrailer {
		return fmt.Errorf("network: bad snapshot trailer %#x", trailer)
	}
	return c.Err()
}

// snapshotHeader walks magic, version and a configuration fingerprint,
// so a restore into a differently-shaped network fails up front: each
// field is written from this network and, when read, must equal it.
func (n *Network) snapshotHeader(c *snap.Codec, cycle *sim.Cycle) error {
	magic, version := snapMagic, uint64(snapVersion)
	nodes, arch, pooling := n.Topo.NumNodes(), n.RouterArch(), !n.noPool
	vcs, depth, ejDepth := n.Cfg.Router.NumVCs(), n.Cfg.Router.BufferDepth, ejectionDepth
	if c.String("magic", &magic, 8); c.Err() == nil && magic != snapMagic {
		return fmt.Errorf("network: bad snapshot magic %q", magic)
	}
	if c.U64("version", &version); c.Err() == nil && version != snapVersion {
		return fmt.Errorf("network: unsupported snapshot version %d (want %d)", version, snapVersion)
	}
	if snap.Int(c, "num nodes", &nodes, 0, math.MaxInt32); c.Err() == nil && nodes != n.Topo.NumNodes() {
		return fmt.Errorf("network: snapshot is for %d nodes, network has %d", nodes, n.Topo.NumNodes())
	}
	if c.String("arch", &arch, 8); c.Err() == nil && arch != n.RouterArch() {
		return fmt.Errorf("network: snapshot router arch %q, network has %q", arch, n.RouterArch())
	}
	if c.Bool("pooling", &pooling); c.Err() == nil && pooling == n.noPool {
		return fmt.Errorf("network: snapshot pooling=%v, network has %v", pooling, !n.noPool)
	}
	if snap.Int(c, "num vcs", &vcs, 0, 1024); c.Err() == nil && vcs != n.Cfg.Router.NumVCs() {
		return fmt.Errorf("network: snapshot has %d VCs, network has %d", vcs, n.Cfg.Router.NumVCs())
	}
	if snap.Int(c, "buffer depth", &depth, 0, 1<<20); c.Err() == nil && depth != n.Cfg.Router.BufferDepth {
		return fmt.Errorf("network: snapshot buffer depth %d, network has %d", depth, n.Cfg.Router.BufferDepth)
	}
	if snap.Int(c, "ejection depth", &ejDepth, 0, 1<<20); c.Err() == nil && ejDepth != ejectionDepth {
		return fmt.Errorf("network: snapshot ejection depth %d, network has %d", ejDepth, ejectionDepth)
	}
	c.I64("cycle", cycle)
	return c.Err()
}

// snapshotWheel walks the event wheel, outboxes merged in first (flush).
// Slot indices are cycle%wheelSize, and the cycle is restored verbatim, so
// slots map 1:1; decoding empties each slot and re-schedules what it reads.
func (n *Network) snapshotWheel(c *snap.Codec) error {
	n.flush()
	nodes, nvc := int64(n.Topo.NumNodes()), n.Cfg.Router.NumVCs()
	for si := range n.wheel {
		events := n.wheel[si]
		if c.Decoding() {
			n.recycleSlot(n.takeSlot(sim.Cycle(si)))
			n.callWheel[si] = n.callWheel[si][:0]
		}
		cnt := c.Len("wheel slot count", len(events), c.InputLen())
		for ei := 0; ei < cnt; ei++ {
			var e event
			var call SchemeCall
			if !c.Decoding() {
				if e = events[ei]; e.kind == evSchemeCall {
					call = n.callWheel[si][e.aux]
				}
			}
			snap.Uint(c, "event kind", &e.kind, math.MaxUint8)
			if c.Decoding() && e.kind != evFlit && e.kind != evCredit && e.kind != evSchemeCall {
				c.Fail("event kind %d invalid in a snapshot", e.kind)
			}
			snap.Int(c, "event to", &e.to, -1, nodes-1)
			snap.Int(c, "event port", &e.port, -1, 127)
			snap.Int(c, "event vc", &e.vc, -128, 127)
			snap.Int(c, "event delta", &e.delta, -128, 127)
			c.Bool("event free", &e.free)
			c.Flit(&e.flit)
			if c.Decoding() && c.Err() == nil && e.kind != evSchemeCall {
				// Delivery indexes the target's flat storage unchecked.
				switch {
				case e.to < 0:
					c.Fail("event to %d: a flit or credit needs a target router", e.to)
				case e.port < 0 || int(e.port) >= len(n.Routers[e.to].In):
					c.Fail("event port %d: router %d has %d ports", e.port, e.to, len(n.Routers[e.to].In))
				case e.vc < 0 || int(e.vc) >= nvc:
					c.Fail("event vc %d: ports have %d VCs", e.vc, nvc)
				case e.delta < 0 || e.delta > 1:
					c.Fail("event delta %d: a credit returns 0 or 1 slots", e.delta)
				case e.kind == evFlit && e.flit.Pkt == nil:
					c.Fail("event flit: a flit event carries no packet")
				}
			}
			if e.kind == evSchemeCall {
				snap.Uint(c, "call kind", &call.Kind, math.MaxUint8)
				snap.Int(c, "call node", &call.Node, -1, nodes-1)
				c.U64("call a", &call.A)
				c.U64("call b", &call.B)
				snap.Int(c, "call hop", &call.Hop, 0, 4*nodes)
				if c.Bool("call hasflit", &call.HasFlit); call.HasFlit {
					c.Flit(&call.Flit)
				}
			}
			if c.Err() != nil {
				return c.Err()
			}
			if c.Decoding() {
				if e.kind == evSchemeCall {
					n.callWheel[si] = append(n.callWheel[si], call)
					e.aux = int32(len(n.callWheel[si]) - 1)
				}
				n.schedule(sim.Cycle(si), e)
			}
		}
	}
	return nil
}

// snapshot walks the NI's injection and ejection state. Reservation
// waiters are plain (vnet, popupID) pairs (see RequestReservation).
func (ni *NI) snapshot(c *snap.Codec) error {
	for v := 0; v < message.NumVNets; v++ {
		q := &ni.injQ[v]
		cnt := c.Len("inj queue len", q.Len(), 1<<24)
		for c.Decoding() && q.Len() > 0 {
			q.Pop()
		}
		for i := 0; i < cnt; i++ {
			var p *message.Packet
			if !c.Decoding() {
				p = q.buf[(q.head+i)%len(q.buf)]
			}
			if c.Packet(&p); c.Err() != nil {
				return c.Err()
			}
			if c.Decoding() {
				q.Push(p)
			}
		}
		st := &ni.streams[v]
		c.Packet(&st.pkt)
		snap.Int(c, "stream vc", &st.vc, -128, 127)
		snap.Int(c, "stream next", &st.next, 0, math.MaxInt32)
		c.Bool("stream active", &ni.active[v])
		snap.Int(c, "ej occupied", &ni.ejOccupied[v], 0, int64(ni.ejCap))
		snap.Int(c, "ej reserved", &ni.ejReserved[v], 0, int64(ni.ejCap))
	}
	for i := range ni.credits {
		snap.Int(c, "ni credits", &ni.credits[i], 0, int64(ni.cfg.BufferDepth))
		c.Bool("ni busy", &ni.busy[i])
	}
	snap.Int(c, "ni vnet rr", &ni.vnetRR, 0, message.NumVNets-1)
	snap.Slice(c, "ni waiter count", &ni.waiters, 1<<20, func(w *reservationWaiter) {
		snap.Int(c, "waiter vnet", &w.vnet, 0, message.NumVNets-1)
		c.U64("waiter popup id", &w.popupID)
	})
	// Reassembly slots keep their exact layout (free slots included):
	// slot selection in asmAdd depends on it.
	snap.Slice(c, "asm slot count", &ni.asm, 1<<20, func(s *asmSlot) {
		c.Packet(&s.pkt)
		snap.Int(c, "asm got", &s.got, 0, math.MaxInt32)
	})
	if c.Decoding() {
		ni.asmLive = 0
		for i := range ni.asm {
			if ni.asm[i].pkt != nil {
				ni.asmLive++
			}
		}
	}
	snap.Slice(c, "complete count", &ni.complete, 1<<20, func(d *completed) {
		c.Packet(&d.pkt)
		c.I64("complete ready", &d.ready)
	})
	return c.Err()
}

func (s *Stats) snapshot(c *snap.Codec) {
	c.I64("stats measure start", &s.MeasureStart)
	c.U64("stats born", &s.BornPackets)
	c.U64("stats injected pkts", &s.InjectedPackets)
	c.U64("stats injected flits", &s.InjectedFlits)
	c.U64("stats ejected flits", &s.EjectedFlits)
	c.U64("stats ejected pkts", &s.EjectedPackets)
	c.U64("stats consumed", &s.ConsumedPackets)
	c.U64("stats measured", &s.MeasuredPackets)
	c.U64("stats net lat", &s.NetLatencySum)
	c.U64("stats queue lat", &s.QueueLatencySum)
	c.U64("stats measure flits0", &s.measureFlits0)
	c.U64("stats upward", &s.UpwardPackets)
	c.U64("stats popups started", &s.PopupsStarted)
	c.U64("stats popups cancelled", &s.PopupsCancelled)
	c.U64("stats popups completed", &s.PopupsCompleted)
	c.U64("stats signals sent", &s.SignalsSent)
	c.U64("stats reservations", &s.ReservationsGranted)
	c.U64("stats injection holds", &s.InjectionHolds)
	c.U64("stats signal retries", &s.SignalRetries)
	c.U64("stats popups aborted", &s.PopupsAborted)
	c.U64("stats signals dropped", &s.SignalsDropped)
	c.U64("stats signals delayed", &s.SignalsDelayed)
	c.U64("stats late signals", &s.LateSignals)
	c.U64("stats link flaps", &s.LinkFlaps)
	c.U64("stats ejection stalls", &s.EjectionStalls)
	c.U64("stats reconfigs", &s.Reconfigs)
	c.U64("stats reconfigs drainless", &s.ReconfigsDrainless)
	c.U64("stats reconfigs epoch", &s.ReconfigsEpoch)
	c.U64("stats route migrations", &s.RouteMigrations)
	c.U64("stats heads migrated", &s.HeadsMigrated)
	c.U64("stats links killed", &s.LinksKilled)
	c.U64("stats links revived", &s.LinksRevived)
	c.U64("stats reconfig held streams", &s.ReconfigHeldStreams)
}

func (h *LatencyHistogram) snapshot(c *snap.Codec) {
	for i := range h.buckets {
		c.U64("hist bucket", &h.buckets[i])
	}
	c.U64("hist count", &h.count)
	c.U64("hist max", &h.maxValue)
}
