// Package reconfig implements deadlock-free dynamic reconfiguration for
// the chiplet system (DESIGN.md §15): persistent link failures and
// hot-adds change the topology at run time; routing is recomputed on the
// surviving graph; and the transition between the old and the new routing
// function is driven either drainlessly (when the union of their
// whole-system channel dependency graphs, routing.BuildCDG, is acyclic
// once its upward dependencies are cut: the UPR condition of arXiv
// 2006.02332 with the paper's Sec. IV-A theorem standing in for the
// vertical channels) or through an epoch fence with UPP as the recovery
// net for the transient cycles a mixed-epoch network can form.
package reconfig

import (
	"fmt"
	"math"
	"slices"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// CutInfo records a permanent link cut: the cycle it was applied and the
// endpoints' cumulative sent-flit counters at that moment. A post-run
// assertion that PortSent still equals SentA/SentB proves no flit
// crossed the link after the cut.
type CutInfo struct {
	Link         int
	Cycle        sim.Cycle
	SentA, SentB uint64
}

// Transition records one routing-epoch transition for assertions and
// reporting. Cut and Finish stay -1 until the respective step runs.
type Transition struct {
	Epoch      uint32
	Begin      sim.Cycle
	Cut        sim.Cycle
	Finish     sim.Cycle
	Compatible bool // CDG verdict (old∪new acyclic after the upward cut)
	Hold       bool // epoch fence used (injection stopped)
}

// Engine drives deadlock-free dynamic reconfiguration. It implements
// network.FaultInjector so it is consulted at the top of every cycle on
// the coordinating goroutine of every kernel — all decisions are
// sequential and kernel bit-identical. Protocol per batch:
//
//  1. Walk the CDG of the old routing function (before any flag flips),
//     apply the batch's Faulty flips, rebuild routing on the surviving
//     graph (routing.NewUpDown: XY consults Link.Faulty at route time,
//     but old-epoch packets keep routing under pre-kill tables after the
//     flags flip, which only a precomputed local supports), walk the new
//     CDG, and check that old∪new is acyclic once its upward
//     dependencies are cut (routing.CDG.CutUpward).
//  2. BeginRouteTransition: packets already in flight keep the old
//     epoch's tables; compatible pairs switch drainlessly (injection
//     never stops), incompatible pairs raise the injection hold.
//  3. Fence the links being killed: no new wormholes enter, waiting
//     heads are unrouted and migrate onto the new tables, and once both
//     endpoints are quiet and no UPP popup path crosses the link, the
//     cut is applied (KillLink) and recorded with the endpoints' sent
//     counters.
//  4. The transition finishes when the old epoch drains to zero live
//     packets. During the overlap UPP remains armed: an incompatible
//     pair can form transient cycles, and popup recovery — not the
//     compatibility proof — is what guarantees forward progress.
type Engine struct {
	net    *network.Network
	inner  *faults.Injector // transient faults (flaps, stalls, drops)
	mode   faults.Mode
	events []faults.Event // the plan's persistent events, in batch order

	cursor     int   // first event not yet applied
	phase      uint8 // phaseIdle, phaseFencing, phaseDraining
	batchStart int   // active batch: events[batchStart:batchEnd]
	batchEnd   int
	dead       []bool // per-chiplet fail-stop state

	cuts        []CutInfo
	transitions []Transition
}

const (
	phaseIdle uint8 = iota
	phaseFencing
	phaseDraining
)

// popupPather is implemented by UPP: it reports that no active popup's
// drain path crosses the link, so cutting it cannot sever a wedged
// packet's escape route.
type popupPather interface {
	PopupPathsAvoid(l *topology.Link) bool
}

// Attach installs plan on n — the one way a fault plan reaches a
// network. A plan with persistent events gets a reconfiguration engine
// as n's fault injector. A plan without any has nothing to reconfigure:
// its plain faults.Injector is installed alone and the returned Engine
// is nil, so such a run's snapshots and Stats carry no engine state.
//
// The plan's events are put in batch order (faults.CompareEvents) and
// validated up front: event targets must exist, killed links
// must be non-vertical mesh links (vertical links are UPP's drain path
// and may not be reconfigured away), and — by dry-running every batch's
// Faulty flips against routing.NewUpDown — no batch may partition a layer. A
// partitioning plan fails here with the routing package's structured
// *DisconnectedError in the chain, never at cycle N of a soak.
func Attach(n *network.Network, plan faults.Plan) (*Engine, error) {
	inner, err := faults.NewInjector(n, plan)
	if err != nil {
		return nil, err
	}
	if !plan.Persistent() {
		n.SetFaultInjector(inner)
		return nil, nil
	}
	e := &Engine{
		net:   n,
		inner: inner,
		mode:  plan.Mode,
		dead:  make([]bool, len(n.Topo.Chiplets)),
	}
	t := n.Topo
	// Only interposer mesh links are reconfigurable: vertical links are
	// UPP's drain path, and chiplet-internal links are fixed, verified
	// silicon in the modular-integration model. The restriction is also
	// what scopes the transition's safety net — mixed-epoch dependency
	// cycles can only form in layers whose local routing changed, and
	// UPP's transition-time mesh detection covers the interposer.
	checkLink := func(what string, id int) error {
		if id < 0 || id >= len(t.Links) {
			return fmt.Errorf("reconfig: %s of link %d, topology has %d", what, id, len(t.Links))
		}
		l := t.Links[id]
		if l.Vertical {
			return fmt.Errorf("reconfig: %s of vertical link %d (vertical links are the UPP drain path)", what, id)
		}
		if t.Node(l.A).Chiplet != topology.InterposerChiplet {
			return fmt.Errorf("reconfig: %s of chiplet-internal link %d (only the interposer fabric is reconfigurable)", what, id)
		}
		return nil
	}
	e.events = slices.Clone(plan.Events)
	slices.SortFunc(e.events, faults.CompareEvents)
	for _, ev := range e.events {
		var err error
		switch ev.Kind {
		case faults.KillLink:
			err = checkLink("kill", ev.Target)
		case faults.AddLink:
			err = checkLink("add", ev.Target)
		default:
			if ev.Target < 0 || ev.Target >= len(t.Chiplets) {
				err = fmt.Errorf("reconfig: kill of chiplet %d, topology has %d", ev.Target, len(t.Chiplets))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := e.dryRun(); err != nil {
		return nil, err
	}
	n.SetFaultInjector(e)
	return e, nil
}

// dryRun applies every batch's Faulty flips in order and rebuilds
// routing after each, proving no batch leaves a partitioned layer, then
// restores the construction-time Faulty set.
func (e *Engine) dryRun() error {
	t := e.net.Topo
	saved := make([]bool, len(t.Links))
	for i, l := range t.Links {
		saved[i] = l.Faulty
	}
	defer func() {
		for i, l := range t.Links {
			l.Faulty = saved[i]
		}
	}()
	for s := 0; s < len(e.events); {
		end := s
		for end < len(e.events) && e.events[end].Cycle == e.events[s].Cycle {
			end++
		}
		topoChange := false
		for _, ev := range e.events[s:end] {
			switch ev.Kind {
			case faults.KillLink:
				t.Links[ev.Target].Faulty = true
				topoChange = true
			case faults.AddLink:
				t.Links[ev.Target].Faulty = false
				topoChange = true
			}
		}
		if topoChange {
			if _, err := routing.NewUpDown(t); err != nil {
				return fmt.Errorf("reconfig: batch at cycle %d leaves no valid routing: %w",
					e.events[s].Cycle, err)
			}
		}
		s = end
	}
	return nil
}

// ChipletAlive reports whether chiplet c's compute is still running.
// Workloads consult it to stop sourcing from and targeting dead cores.
func (e *Engine) ChipletAlive(c int) bool { return c >= 0 && c < len(e.dead) && !e.dead[c] }

// Cuts returns the applied permanent link cuts.
func (e *Engine) Cuts() []CutInfo { return e.cuts }

// Transitions returns the routing-epoch transitions run so far.
func (e *Engine) Transitions() []Transition { return e.transitions }

// Done reports that every event has been applied and no transition is
// still in flight.
func (e *Engine) Done() bool { return e.cursor == len(e.events) && e.phase == phaseIdle }

// BeginCycle implements network.FaultInjector: transient faults are
// delegated to the embedded injector, then the reconfiguration state
// machine advances. During a snapshot restore's cursor resync the state
// machine is skipped — decoding the engine's section rebuilds it exactly.
func (e *Engine) BeginCycle(cycle sim.Cycle) {
	e.inner.BeginCycle(cycle)
	if e.net.Restoring() {
		return
	}
	e.step(cycle)
}

// SignalFate implements network.FaultInjector.
func (e *Engine) SignalFate(kind network.SignalKind, popupID uint64, hop int, cycle sim.Cycle) network.Fate {
	return e.inner.SignalFate(kind, popupID, hop, cycle)
}

// EjectionStalled implements network.FaultInjector.
func (e *Engine) EjectionStalled(node topology.NodeID, cycle sim.Cycle) bool {
	return e.inner.EjectionStalled(node, cycle)
}

// step advances the reconfiguration state machine one cycle.
func (e *Engine) step(cycle sim.Cycle) {
	switch e.phase {
	case phaseIdle:
		// A batch whose cycle arrives while an earlier transition is
		// still draining starts late, once the machine is idle again —
		// at most one transition is ever active.
		if e.cursor < len(e.events) && e.events[e.cursor].Cycle <= cycle {
			e.beginBatch(cycle)
		}
	case phaseFencing:
		e.stepFencing(cycle)
	case phaseDraining:
		e.stepDraining(cycle)
	}
}

// beginBatch runs the CDG compatibility check and starts the transition
// for the batch of events due at (or before) this cycle.
func (e *Engine) beginBatch(cycle sim.Cycle) {
	t := e.net.Topo
	e.batchStart = e.cursor
	for e.cursor < len(e.events) && e.events[e.cursor].Cycle == e.events[e.batchStart].Cycle {
		e.cursor++
	}
	e.batchEnd = e.cursor

	topoChange := false
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == faults.KillChiplet {
			// Fail-stop of compute only: applied immediately, no
			// routing change, no transition.
			e.dead[ev.Target] = true
		} else {
			topoChange = true
		}
	}
	if !topoChange {
		return
	}

	// Old CDG must be walked before the Faulty flips: it describes the
	// routing function the in-flight packets will keep using. Both graphs
	// are whole-system walks under the static binding: every cycle left
	// after the upward cut lies in one layer's mesh, where the walk's
	// dependencies do not depend on the binding.
	oldCDG, oldErr := routing.BuildCDG(e.net.Hier(), routing.DefaultPolicy{})

	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		switch ev.Kind {
		case faults.KillLink:
			t.Links[ev.Target].Faulty = true
		case faults.AddLink:
			e.net.ReviveLink(t.Links[ev.Target])
		}
	}

	newLocal, err := routing.NewUpDown(t)
	if err != nil {
		// Unreachable: Attach dry-ran every batch. A failure here means
		// something else mutated the topology mid-run.
		panic(fmt.Sprintf("reconfig: rebuild at cycle %d: %v", cycle, err))
	}
	compatible := false
	if oldErr == nil {
		if newCDG, newErr := routing.BuildCDG(routing.NewHierarchical(t, newLocal), routing.DefaultPolicy{}); newErr == nil {
			oldCDG.Or(newCDG)
			oldCDG.CutUpward()
			compatible = oldCDG.FindCycle() == nil
		}
	}
	// Any walk failure ⇒ not provably compatible ⇒ the conservative
	// epoch transition.
	hold := !compatible
	switch e.mode {
	case faults.ModeDrainless:
		hold = false
	case faults.ModeEpoch:
		hold = true
	}

	// The transition must begin before any fence goes up: migration of a
	// head off a fenced port needs the new epoch's tables installed.
	e.net.BeginRouteTransition(newLocal, hold)
	e.transitions = append(e.transitions, Transition{
		Epoch: e.net.RouteEpoch(), Begin: cycle, Cut: -1, Finish: -1,
		Compatible: compatible, Hold: hold,
	})

	fencing := false
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == faults.KillLink {
			e.net.SetLinkFenced(t.Links[ev.Target], true)
			fencing = true
		}
	}
	if fencing {
		e.phase = phaseFencing
		e.stepFencing(cycle)
	} else {
		e.phase = phaseDraining
		e.stepDraining(cycle)
	}
}

// stepFencing migrates waiting heads off the fenced links and applies
// the cut once every fenced link is quiet and clear of popup paths.
func (e *Engine) stepFencing(cycle sim.Cycle) {
	t := e.net.Topo
	migrated := 0
	quiet := true
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind != faults.KillLink {
			continue
		}
		l := t.Links[ev.Target]
		migrated += e.net.UnrouteFencedHeads(l)
		if !e.net.LinkQuiet(l) {
			quiet = false
		} else if pp, ok := e.net.Scheme().(popupPather); ok && !pp.PopupPathsAvoid(l) {
			// A popup circuit still drains a wedged packet across this
			// link; cutting now would strand it. Wait the popup out.
			quiet = false
		}
	}
	if migrated > 0 {
		e.net.AddHeadsMigrated(migrated)
	}
	if !quiet {
		return
	}
	ti := len(e.transitions) - 1
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind != faults.KillLink {
			continue
		}
		l := t.Links[ev.Target]
		e.cuts = append(e.cuts, CutInfo{
			Link:  ev.Target,
			Cycle: cycle,
			SentA: e.net.Routers[l.A].PortSent(l.APort),
			SentB: e.net.Routers[l.B].PortSent(l.BPort),
		})
		// The fence stays up past the cut: stale old-epoch lookups must
		// keep migrating off the dead port instead of wedging on it.
		e.net.KillLink(l)
	}
	e.transitions[ti].Cut = cycle
	e.phase = phaseDraining
	e.stepDraining(cycle)
}

// stepDraining finishes the transition once the old epoch has no live
// packets, then lifts the fences.
func (e *Engine) stepDraining(cycle sim.Cycle) {
	if e.net.OldEpochLive() != 0 {
		return
	}
	e.net.FinishRouteTransition()
	t := e.net.Topo
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == faults.KillLink {
			e.net.SetLinkFenced(t.Links[ev.Target], false)
		}
	}
	e.transitions[len(e.transitions)-1].Finish = cycle
	e.phase = phaseIdle
}

// SnapshotLabel implements network.SnapshotExtra.
func (e *Engine) SnapshotLabel() string { return "reconfig" }

// SnapshotState implements network.SnapshotExtra. Only cursor state is
// serialized: the routing tables of both epochs are pure functions of
// the topology's Faulty set at the replayed cursor, and decoding
// re-derives them (so a snapshot stays compact and a restore is
// bit-identical by construction): it replays every applied event's
// Faulty/Down flips onto the fresh topology, rebuilds the routing tables
// of the current epoch (and of the previous epoch when a transition is
// mid-flight) and installs them in the network. Router port masks and the
// network's epoch scalars were already restored from their own sections.
func (e *Engine) SnapshotState(c *snap.Codec) error {
	ne := int64(len(e.events))
	snap.Int(c, "reconfig cursor", &e.cursor, 0, ne)
	snap.Uint(c, "reconfig phase", &e.phase, uint64(phaseDraining))
	snap.Int(c, "reconfig batch start", &e.batchStart, 0, ne)
	snap.Int(c, "reconfig batch end", &e.batchEnd, 0, ne)
	snap.Slice(c, "reconfig cuts", &e.cuts, len(e.events), func(cut *CutInfo) {
		snap.Int(c, "cut link", &cut.Link, 0, int64(len(e.net.Topo.Links)-1))
		c.I64("cut cycle", &cut.Cycle)
		c.U64("cut sent A", &cut.SentA)
		c.U64("cut sent B", &cut.SentB)
	})
	snap.Slice(c, "reconfig transitions", &e.transitions, len(e.events)+1, func(tr *Transition) {
		snap.Uint(c, "transition epoch", &tr.Epoch, math.MaxUint32)
		c.I64("transition begin", &tr.Begin)
		c.I64("transition cut", &tr.Cut)
		c.I64("transition finish", &tr.Finish)
		c.Bool("transition compatible", &tr.Compatible)
		c.Bool("transition hold", &tr.Hold)
	})
	if c.Err() != nil || !c.Decoding() {
		return c.Err()
	}
	if e.phase != phaseIdle && (e.batchEnd != e.cursor || e.batchStart >= e.batchEnd) {
		return fmt.Errorf("reconfig: snapshot batch [%d,%d) inconsistent with cursor %d",
			e.batchStart, e.batchEnd, e.cursor)
	}

	// Replay: every event with index < cursor has had its flips applied
	// (the cursor advances past a batch the moment it begins).
	t := e.net.Topo
	for i := range e.dead {
		e.dead[i] = false
	}
	cutSet := map[int]bool{}
	for _, c := range e.cuts {
		cutSet[c.Link] = true
	}
	topoApplied := false
	for i := 0; i < e.cursor; i++ {
		ev := e.events[i]
		switch ev.Kind {
		case faults.KillLink:
			l := t.Links[ev.Target]
			l.Faulty = true
			// The Down flag follows the cut, not the batch: a kill
			// mid-fencing is Faulty (tables exclude it) but not yet cut.
			if cutSet[ev.Target] {
				l.Down = true
			}
			topoApplied = true
		case faults.AddLink:
			l := t.Links[ev.Target]
			l.Faulty = false
			l.Down = false
			topoApplied = true
		case faults.KillChiplet:
			e.dead[ev.Target] = true
		}
	}

	if !topoApplied {
		// No transition has run: the construction-time tables (which
		// need not come from NewUpDown at all) are still installed.
		return nil
	}
	cur, err := routing.NewUpDown(t)
	if err != nil {
		return fmt.Errorf("reconfig: restore rebuild: %w", err)
	}
	var prevH *routing.Hierarchical
	if e.phase != phaseIdle {
		// The previous epoch's tables are the ones built before the
		// active batch: un-flip it, rebuild, re-flip.
		e.flipBatch(true)
		prev, err := routing.NewUpDown(t)
		e.flipBatch(false)
		if err != nil {
			return fmt.Errorf("reconfig: restore prev-epoch rebuild: %w", err)
		}
		prevH = routing.NewHierarchical(t, prev)
	}
	e.net.RestoreRouteTables(routing.NewHierarchical(t, cur), prevH)
	return nil
}

// flipBatch toggles the active batch's Faulty flips (invert=true undoes
// them, invert=false reapplies them).
func (e *Engine) flipBatch(invert bool) {
	t := e.net.Topo
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		switch ev.Kind {
		case faults.KillLink:
			t.Links[ev.Target].Faulty = !invert
		case faults.AddLink:
			t.Links[ev.Target].Faulty = invert
		}
	}
}
