package network

import (
	"fmt"
	"io"
	"math"

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
	// SnapshotState appends the extra's state.
	SnapshotState(w *snap.Writer)
	// RestoreState overwrites the extra's state from a snapshot.
	RestoreState(r *snap.Reader) error
}

// WriteSnapshot serializes the network's full state to w, between
// cycles (call it after Step/Run returns, never from inside a hook).
func (n *Network) WriteSnapshot(out io.Writer, extras ...SnapshotExtra) error {
	if n.inNIWalk {
		return fmt.Errorf("network: snapshot mid-cycle (call between Steps)")
	}
	w := snap.NewWriter()
	// Header: magic, version, and a configuration fingerprint so a
	// restore into a differently-shaped network fails up front.
	w.String(snapMagic)
	w.Uvarint(snapVersion)
	w.Int(n.Topo.NumNodes())
	w.String(n.RouterArch())
	w.Bool(n.Pooling())
	w.Int(n.Cfg.Router.NumVCs())
	w.Int(n.Cfg.Router.BufferDepth)
	w.Int(n.Cfg.EjectionDepth)
	w.Varint(n.cycle)

	// Routers and NIs in node order.
	for _, r := range n.Routers {
		r.Snapshot(w)
	}
	for _, ni := range n.NIs {
		ni.snapshot(w)
	}

	// Event wheel: slot indices are cycle%wheelSize, and the cycle is
	// restored verbatim, so slots map 1:1.
	for si := range n.wheel {
		events := n.wheel[si]
		w.Uvarint(uint64(len(events)))
		for ei := range events {
			e := &events[ei]
			w.Uvarint(uint64(e.kind))
			w.Varint(int64(e.to))
			w.Varint(int64(e.port))
			w.Varint(int64(e.vc))
			w.Varint(int64(e.delta))
			w.Bool(e.free)
			w.Flit(e.flit)
			if e.kind == evSchemeCall {
				c := &n.callWheel[si][e.aux]
				w.Uvarint(uint64(c.Kind))
				w.Varint(int64(c.Node))
				w.Uvarint(c.A)
				w.Uvarint(c.B)
				w.Varint(int64(c.Hop))
				w.Bool(c.HasFlit)
				if c.HasFlit {
					w.Flit(c.Flit)
				}
			}
		}
	}

	// Scheme protocol state (UPP popup machines, remotectl holds...).
	n.scheme.Snapshot(w)

	// Packet pool: freelist in order (through the table, so stale
	// pointers held elsewhere keep their identity) plus counters.
	w.Uvarint(uint64(n.pool.FreeLen()))
	n.pool.ForEachFree(func(p *message.Packet) { w.Packet(p) })
	ps := n.pool.Stats
	w.Uvarint(ps.Gets)
	w.Uvarint(ps.Reuses)
	w.Uvarint(ps.Puts)

	// Network scalars and active sets, each set as a count and its IDs
	// ascending.
	w.Uvarint(n.nextID)
	w.Varint(n.lastEject)
	for _, set := range []*awakeSet{&n.routers, &n.nis} {
		w.Uvarint(uint64(set.count))
		for id := set.next(-1); id >= 0; id = set.next(id) {
			w.Varint(int64(id))
		}
	}
	w.Uvarint(n.rng.State()[0])
	w.Uvarint(n.rng.State()[1])
	w.Uvarint(n.rng.State()[2])
	w.Uvarint(n.rng.State()[3])

	// Reconfiguration scalars. prevHier is not serialized — the attached
	// reconfiguration engine re-derives and reinstalls both routing tables
	// from its own (serialized) event cursor during its RestoreState.
	w.Uvarint(uint64(n.routeEpoch))
	w.Bool(n.injectHold)
	w.Varint(n.epochLive[0].Load())
	w.Varint(n.epochLive[1].Load())
	w.Int(n.fencedLinks)

	// The packet table closes every pointer-bearing section; sections
	// after it must not reference packets.
	w.WritePacketTable()

	// Stats and the latency histogram (restored after any fault-resync
	// side effects on the read side, so the counters land last).
	n.Stats.snapshot(w)
	n.latHist.snapshot(w)

	for _, ex := range extras {
		w.String(ex.SnapshotLabel())
		ex.SnapshotState(w)
	}
	w.Uvarint(snapTrailer)

	_, err := out.Write(w.Bytes())
	return err
}

// ReadSnapshot overwrites the state of a freshly constructed network —
// same topology, config, scheme type and pooling setting as the writer
// — from snapshot bytes. Corrupt or truncated input yields a structured
// error, never a panic. If a fault injector is attached, its flap state
// is resynced to the restored cycle.
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
	if m := r.String("magic", 8); r.Err() == nil && m != snapMagic {
		return fmt.Errorf("network: bad snapshot magic %q", m)
	}
	if v := r.Uvarint("version"); r.Err() == nil && v != snapVersion {
		return fmt.Errorf("network: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	if nn := r.Int("num nodes", 0, math.MaxInt32); r.Err() == nil && nn != n.Topo.NumNodes() {
		return fmt.Errorf("network: snapshot is for %d nodes, network has %d", nn, n.Topo.NumNodes())
	}
	if a := r.String("arch", 8); r.Err() == nil && a != n.RouterArch() {
		return fmt.Errorf("network: snapshot router arch %q, network has %q", a, n.RouterArch())
	}
	if p := r.Bool("pooling"); r.Err() == nil && p != n.Pooling() {
		return fmt.Errorf("network: snapshot pooling=%v, network has %v", p, n.Pooling())
	}
	if v := r.Int("num vcs", 0, 1024); r.Err() == nil && v != n.Cfg.Router.NumVCs() {
		return fmt.Errorf("network: snapshot has %d VCs, network has %d", v, n.Cfg.Router.NumVCs())
	}
	if d := r.Int("buffer depth", 0, 1<<20); r.Err() == nil && d != n.Cfg.Router.BufferDepth {
		return fmt.Errorf("network: snapshot buffer depth %d, network has %d", d, n.Cfg.Router.BufferDepth)
	}
	if d := r.Int("ejection depth", 0, 1<<20); r.Err() == nil && d != n.Cfg.EjectionDepth {
		return fmt.Errorf("network: snapshot ejection depth %d, network has %d", d, n.Cfg.EjectionDepth)
	}
	cycle := r.Varint("cycle")
	if r.Err() != nil {
		return r.Err()
	}

	for _, rt := range n.Routers {
		if err := rt.Restore(r); err != nil {
			return err
		}
	}
	for _, ni := range n.NIs {
		if err := ni.restore(r); err != nil {
			return err
		}
	}

	for si := range n.wheel {
		n.recycleSlot(n.takeSlot(sim.Cycle(si)))
		n.callWheel[si] = n.callWheel[si][:0]
		cnt := r.Len("wheel slot count", len(data))
		if r.Err() != nil {
			return r.Err()
		}
		for ei := 0; ei < cnt; ei++ {
			var e event
			k := r.Uvarint("event kind")
			switch k {
			case evFlit, evCredit, evSchemeCall:
			default:
				r.Fail("event kind %d invalid in a snapshot", k)
			}
			e.kind = uint8(k)
			e.to = topology.NodeID(r.Int("event to", -1, int64(n.Topo.NumNodes())-1))
			e.port = topology.PortID(r.Int("event port", -1, 127))
			e.vc = int8(r.Int("event vc", -128, 127))
			e.delta = int8(r.Int("event delta", -128, 127))
			e.free = r.Bool("event free")
			e.flit = r.Flit()
			if r.Err() == nil && e.kind != evSchemeCall {
				// Delivery indexes the target's flat storage unchecked.
				switch {
				case e.to < 0:
					r.Fail("event to %d: a flit or credit needs a target router", e.to)
				case e.port < 0 || int(e.port) >= len(n.Routers[e.to].In):
					r.Fail("event port %d: router %d has %d ports", e.port, e.to, len(n.Routers[e.to].In))
				case e.vc < 0 || int(e.vc) >= n.Cfg.Router.NumVCs():
					r.Fail("event vc %d: ports have %d VCs", e.vc, n.Cfg.Router.NumVCs())
				case e.delta < 0 || e.delta > 1:
					r.Fail("event delta %d: a credit returns 0 or 1 slots", e.delta)
				case e.kind == evFlit && e.flit.Pkt == nil:
					r.Fail("event flit: a flit event carries no packet")
				}
			}
			if e.kind == evSchemeCall {
				var c SchemeCall
				ck := r.Uvarint("call kind")
				if r.Err() == nil && ck > math.MaxUint8 {
					r.Fail("call kind %d out of range", ck)
				}
				c.Kind = uint8(ck)
				c.Node = topology.NodeID(r.Int("call node", -1, int64(n.Topo.NumNodes())-1))
				c.A = r.Uvarint("call a")
				c.B = r.Uvarint("call b")
				c.Hop = int32(r.Int("call hop", 0, 4*int64(n.Topo.NumNodes())))
				c.HasFlit = r.Bool("call hasflit")
				if c.HasFlit {
					c.Flit = r.Flit()
				}
				n.callWheel[si] = append(n.callWheel[si], c)
				e.aux = int32(len(n.callWheel[si]) - 1)
			}
			if r.Err() != nil {
				return r.Err()
			}
			n.schedule(sim.Cycle(si), e)
		}
	}

	if err := n.scheme.Restore(r); err != nil {
		return err
	}

	nfree := r.Len("pool free count", len(data))
	if r.Err() != nil {
		return r.Err()
	}
	free := make([]*message.Packet, 0, min(nfree, 4096))
	for i := 0; i < nfree; i++ {
		p := r.Packet()
		if r.Err() != nil {
			return r.Err()
		}
		if p == nil {
			return fmt.Errorf("network: nil packet in snapshot freelist")
		}
		free = append(free, p)
	}
	pool := n.PacketPool()
	pool.SetFree(free)
	pool.Stats.Gets = r.Uvarint("pool gets")
	pool.Stats.Reuses = r.Uvarint("pool reuses")
	pool.Stats.Puts = r.Uvarint("pool puts")

	n.nextID = r.Uvarint("next packet id")
	n.lastEject = r.Varint("last eject")
	// The IDs may come in any order; a repeated one is corrupt input.
	for _, set := range []struct {
		s    *awakeSet
		what string
	}{{&n.routers, "router"}, {&n.nis, "NI"}} {
		count := r.Len(set.what+" awake count", n.Topo.NumNodes())
		label := "awake " + set.what + " id"
		set.s.clear()
		for i := 0; i < count; i++ {
			id := topology.NodeID(r.Int(label, 0, int64(n.Topo.NumNodes())-1))
			if r.Err() != nil {
				return r.Err()
			}
			if set.s.has(id) {
				return fmt.Errorf("network: duplicate awake %s %d in snapshot", set.what, id)
			}
			set.s.add(id)
		}
	}
	// AwakeRouterIDs keeps matching the set until the next retirement.
	n.awakeIDs = n.awakeIDs[:0]
	for id := n.routers.next(-1); id >= 0; id = n.routers.next(id) {
		n.awakeIDs = append(n.awakeIDs, int32(id))
	}
	var st [4]uint64
	for i := range st {
		st[i] = r.Uvarint("network rng")
	}
	if r.Err() != nil {
		return r.Err()
	}
	n.rng.SetState(st)

	epoch := r.Uvarint("route epoch")
	if r.Err() == nil && epoch > math.MaxUint32 {
		return fmt.Errorf("network: route epoch %d out of range", epoch)
	}
	n.routeEpoch = uint32(epoch)
	n.injectHold = r.Bool("inject hold")
	n.epochLive[0].Store(r.Varint("epoch live 0"))
	n.epochLive[1].Store(r.Varint("epoch live 1"))
	n.fencedLinks = r.Int("fenced links", 0, int64(len(n.Topo.Links)))

	r.ReadPacketTable()
	if r.Err() != nil {
		return r.Err()
	}
	if perr := pool.Check(); perr != nil {
		return fmt.Errorf("network: restored freelist invalid: %w", perr)
	}

	n.cycle = cycle
	// Resync an attached fault injector's flap windows to the restored
	// clock before the counters land: SetLinkDown edges during resync
	// bump Stats.LinkFlaps, which the Stats section below overwrites
	// with the writer's true counts. The restoring flag tells a
	// state-machine injector (reconfig.Engine) this BeginCycle is a
	// cursor resync, not live simulation — its own RestoreState (an
	// extra below) rebuilds the authoritative state afterwards.
	n.restoring = true
	if n.faults != nil && cycle > 0 {
		n.faults.BeginCycle(cycle - 1)
	}
	n.restoring = false

	if err := n.Stats.restore(r); err != nil {
		return err
	}
	// The worker-side migration counter mirrors the folded Stats value
	// (snapshots are taken between cycles, right after a fold).
	n.routeMigrations.Store(n.Stats.RouteMigrations)
	if err := n.latHist.restore(r); err != nil {
		return err
	}

	for _, ex := range extras {
		label := r.String("extra label", 64)
		if r.Err() != nil {
			return r.Err()
		}
		if label != ex.SnapshotLabel() {
			return fmt.Errorf("network: snapshot extra %q, expected %q", label, ex.SnapshotLabel())
		}
		if err := ex.RestoreState(r); err != nil {
			return err
		}
	}
	if t := r.Uvarint("trailer"); r.Err() == nil && t != snapTrailer {
		return fmt.Errorf("network: bad snapshot trailer %#x", t)
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("network: %d trailing bytes after snapshot", r.Remaining())
	}
	return nil
}

// snapshot serializes the NI's injection and ejection state. Reservation
// waiters are serialized as (vnet, popupID) pairs; the owning scheme
// re-installs the grant callbacks during its own Restore via
// RebindReservation.
func (ni *NI) snapshot(w *snap.Writer) {
	for v := 0; v < message.NumVNets; v++ {
		q := &ni.injQ[v]
		w.Uvarint(uint64(q.Len()))
		for i := 0; i < q.n; i++ {
			w.Packet(q.buf[(q.head+i)%len(q.buf)])
		}
		st := &ni.streams[v]
		w.Packet(st.pkt)
		w.Varint(int64(st.vc))
		w.Varint(int64(st.next))
		w.Bool(ni.active[v])
		w.Int(ni.ejOccupied[v])
		w.Int(ni.ejReserved[v])
	}
	for i := range ni.credits {
		w.Varint(int64(ni.credits[i]))
		w.Bool(ni.busy[i])
	}
	w.Int(ni.vnetRR)
	w.Uvarint(uint64(len(ni.waiters)))
	for i := range ni.waiters {
		w.Varint(int64(ni.waiters[i].vnet))
		w.Uvarint(ni.waiters[i].popupID)
	}
	// Reassembly slots keep their exact layout (free slots included):
	// slot selection in asmAdd depends on it.
	w.Uvarint(uint64(len(ni.asm)))
	for i := range ni.asm {
		w.Packet(ni.asm[i].pkt)
		w.Varint(int64(ni.asm[i].got))
	}
	w.Uvarint(uint64(len(ni.complete)))
	for i := range ni.complete {
		w.Packet(ni.complete[i].pkt)
		w.Varint(ni.complete[i].ready)
	}
}

func (ni *NI) restore(r *snap.Reader) error {
	for v := 0; v < message.NumVNets; v++ {
		q := &ni.injQ[v]
		for q.Len() > 0 {
			q.Pop()
		}
		cnt := r.Len("inj queue len", 1<<24)
		if r.Err() != nil {
			return r.Err()
		}
		for i := 0; i < cnt; i++ {
			p := r.Packet()
			if r.Err() != nil {
				return r.Err()
			}
			q.Push(p)
		}
		st := &ni.streams[v]
		st.pkt = r.Packet()
		st.vc = int8(r.Int("stream vc", -128, 127))
		next := r.Int("stream next", 0, math.MaxInt32)
		st.next = int32(next)
		ni.active[v] = r.Bool("stream active")
		ni.ejOccupied[v] = r.Int("ej occupied", 0, int64(ni.ejCap))
		ni.ejReserved[v] = r.Int("ej reserved", 0, int64(ni.ejCap))
	}
	for i := range ni.credits {
		ni.credits[i] = int16(r.Int("ni credits", 0, int64(ni.cfg.BufferDepth)))
		ni.busy[i] = r.Bool("ni busy")
	}
	ni.vnetRR = r.Int("ni vnet rr", 0, message.NumVNets-1)
	nw := r.Len("ni waiter count", 1<<20)
	if r.Err() != nil {
		return r.Err()
	}
	ni.waiters = ni.waiters[:0]
	for i := 0; i < nw; i++ {
		vnet := message.VNet(r.Int("waiter vnet", 0, message.NumVNets-1))
		id := r.Uvarint("waiter popup id")
		if r.Err() != nil {
			return r.Err()
		}
		ni.waiters = append(ni.waiters, reservationWaiter{vnet: vnet, popupID: id})
	}
	na := r.Len("asm slot count", 1<<20)
	if r.Err() != nil {
		return r.Err()
	}
	ni.asm = ni.asm[:0]
	ni.asmLive = 0
	for i := 0; i < na; i++ {
		p := r.Packet()
		got := r.Int("asm got", 0, math.MaxInt32)
		if r.Err() != nil {
			return r.Err()
		}
		ni.asm = append(ni.asm, asmSlot{pkt: p, got: int32(got)})
		if p != nil {
			ni.asmLive++
		}
	}
	nc := r.Len("complete count", 1<<20)
	if r.Err() != nil {
		return r.Err()
	}
	ni.complete = ni.complete[:0]
	for i := 0; i < nc; i++ {
		p := r.Packet()
		ready := r.Varint("complete ready")
		if r.Err() != nil {
			return r.Err()
		}
		ni.complete = append(ni.complete, completed{pkt: p, ready: ready})
	}
	return nil
}

// RebindReservation re-installs the grant callback of a restored
// reservation waiter (identified by its popup ID). The owning scheme
// calls it from Restore for every waiter it serialized; it reports
// whether a matching unbound waiter existed.
func (ni *NI) RebindReservation(popupID uint64, grant func(cycle sim.Cycle)) bool {
	for i := range ni.waiters {
		if ni.waiters[i].popupID == popupID && ni.waiters[i].grant == nil {
			ni.waiters[i].grant = grant
			return true
		}
	}
	return false
}

// ReservationWaiters visits the NI's pending reservation waiters in
// grant order (vnet, popupID) — schemes use it during Restore to know
// which waiters need rebinding.
func (ni *NI) ReservationWaiters(fn func(vnet message.VNet, popupID uint64)) {
	for i := range ni.waiters {
		fn(ni.waiters[i].vnet, ni.waiters[i].popupID)
	}
}

func (s *Stats) snapshot(w *snap.Writer) {
	w.Varint(s.MeasureStart)
	w.Uvarint(s.BornPackets)
	w.Uvarint(s.InjectedPackets)
	w.Uvarint(s.InjectedFlits)
	w.Uvarint(s.EjectedFlits)
	w.Uvarint(s.EjectedPackets)
	w.Uvarint(s.ConsumedPackets)
	w.Uvarint(s.MeasuredPackets)
	w.Uvarint(s.NetLatencySum)
	w.Uvarint(s.QueueLatencySum)
	w.Uvarint(s.measureFlits0)
	w.Uvarint(s.UpwardPackets)
	w.Uvarint(s.PopupsStarted)
	w.Uvarint(s.PopupsCancelled)
	w.Uvarint(s.PopupsCompleted)
	w.Uvarint(s.SignalsSent)
	w.Uvarint(s.ReservationsGranted)
	w.Uvarint(s.InjectionHolds)
	w.Uvarint(s.SignalRetries)
	w.Uvarint(s.PopupsAborted)
	w.Uvarint(s.SignalsDropped)
	w.Uvarint(s.SignalsDelayed)
	w.Uvarint(s.LateSignals)
	w.Uvarint(s.LinkFlaps)
	w.Uvarint(s.EjectionStalls)
	w.Uvarint(s.Reconfigs)
	w.Uvarint(s.ReconfigsDrainless)
	w.Uvarint(s.ReconfigsEpoch)
	w.Uvarint(s.RouteMigrations)
	w.Uvarint(s.HeadsMigrated)
	w.Uvarint(s.LinksKilled)
	w.Uvarint(s.LinksRevived)
	w.Uvarint(s.ReconfigHeldStreams)
}

func (s *Stats) restore(r *snap.Reader) error {
	s.MeasureStart = r.Varint("stats measure start")
	s.BornPackets = r.Uvarint("stats born")
	s.InjectedPackets = r.Uvarint("stats injected pkts")
	s.InjectedFlits = r.Uvarint("stats injected flits")
	s.EjectedFlits = r.Uvarint("stats ejected flits")
	s.EjectedPackets = r.Uvarint("stats ejected pkts")
	s.ConsumedPackets = r.Uvarint("stats consumed")
	s.MeasuredPackets = r.Uvarint("stats measured")
	s.NetLatencySum = r.Uvarint("stats net lat")
	s.QueueLatencySum = r.Uvarint("stats queue lat")
	s.measureFlits0 = r.Uvarint("stats measure flits0")
	s.UpwardPackets = r.Uvarint("stats upward")
	s.PopupsStarted = r.Uvarint("stats popups started")
	s.PopupsCancelled = r.Uvarint("stats popups cancelled")
	s.PopupsCompleted = r.Uvarint("stats popups completed")
	s.SignalsSent = r.Uvarint("stats signals sent")
	s.ReservationsGranted = r.Uvarint("stats reservations")
	s.InjectionHolds = r.Uvarint("stats injection holds")
	s.SignalRetries = r.Uvarint("stats signal retries")
	s.PopupsAborted = r.Uvarint("stats popups aborted")
	s.SignalsDropped = r.Uvarint("stats signals dropped")
	s.SignalsDelayed = r.Uvarint("stats signals delayed")
	s.LateSignals = r.Uvarint("stats late signals")
	s.LinkFlaps = r.Uvarint("stats link flaps")
	s.EjectionStalls = r.Uvarint("stats ejection stalls")
	s.Reconfigs = r.Uvarint("stats reconfigs")
	s.ReconfigsDrainless = r.Uvarint("stats reconfigs drainless")
	s.ReconfigsEpoch = r.Uvarint("stats reconfigs epoch")
	s.RouteMigrations = r.Uvarint("stats route migrations")
	s.HeadsMigrated = r.Uvarint("stats heads migrated")
	s.LinksKilled = r.Uvarint("stats links killed")
	s.LinksRevived = r.Uvarint("stats links revived")
	s.ReconfigHeldStreams = r.Uvarint("stats reconfig held streams")
	return r.Err()
}

func (h *LatencyHistogram) snapshot(w *snap.Writer) {
	for i := range h.buckets {
		w.Uvarint(h.buckets[i])
	}
	w.Uvarint(h.count)
	w.Uvarint(h.maxValue)
}

func (h *LatencyHistogram) restore(r *snap.Reader) error {
	for i := range h.buckets {
		h.buckets[i] = r.Uvarint("hist bucket")
	}
	h.count = r.Uvarint("hist count")
	h.maxValue = r.Uvarint("hist max")
	return r.Err()
}
