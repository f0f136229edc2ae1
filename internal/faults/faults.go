// Package faults is the deterministic runtime fault-injection subsystem:
// seed-driven plans that flap mesh links transiently, drop or delay UPP
// protocol signals, and stall NI ejection for bounded windows.
//
// Determinism contract: a Plan is pure data, and the Injector it drives
// keeps no RNG stream — signal fates are stateless hashes of
// (seed, kind, popupID, hop, cycle), and flap/stall windows are plain
// cycle-range comparisons. Two runs of the same plan therefore inject
// byte-identical faults regardless of kernel (naive, active, parallel),
// shard count, or the order fate queries happen to be made in.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// LinkFlap is one transient outage window on a mesh link: the link is
// down for cycles in [Start, End) and carries traffic again afterwards.
// Windows on the same link must not overlap.
type LinkFlap struct {
	Link       int // index into Topology.Links; must be a mesh (non-vertical) link
	Start, End sim.Cycle
}

// EjectStall freezes one NI's ejection (the PE stops consuming) for
// cycles in [Start, End) — the local-port backpressure a hung core exerts.
type EjectStall struct {
	Node       topology.NodeID
	Start, End sim.Cycle
}

// EventKind classifies a persistent topology event.
type EventKind uint8

const (
	// KillLink is a persistent link failure: at its cycle the link is
	// announced dead and never heals on its own. Unlike a LinkFlap — which
	// only pauses traffic — a kill changes the topology, so the
	// reconfiguration engine (internal/reconfig) rebuilds routing around it.
	KillLink EventKind = iota
	// AddLink heals a construction-time Faulty link — the hot-add / repair
	// event. Routing starts using the link once the reconfiguration engine
	// installs tables that include it.
	AddLink
	// KillChiplet fail-stops one chiplet's compute: its cores stop sourcing
	// traffic and other cores stop targeting it. The chiplet's routers stay
	// powered so in-flight packets drain (the fail-stop model of modular
	// systems — a dead compute die, not a dead interposer region), so no
	// routing transition runs.
	KillChiplet
)

// Event is one persistent topology event. Events sharing a cycle form one
// batch: a single routing transition covers all of them.
type Event struct {
	Cycle  sim.Cycle
	Kind   EventKind
	Target int // link index (KillLink, AddLink) or chiplet index (KillChiplet)
}

// CompareEvents is batch order: by cycle, then kills before adds before
// chiplet kills, then by target.
func CompareEvents(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Target, b.Target))
}

// Mode selects how the reconfiguration engine transitions between routing
// functions (the spec key mode=).
type Mode uint8

const (
	// ModeAuto picks drainless when the old∪new CDG minus its upward
	// dependencies is acyclic, epoch-based otherwise. The default.
	ModeAuto Mode = iota
	// ModeDrainless forces the drainless switch even for incompatible
	// pairs — injection never stops, and UPP is the only thing standing
	// between a transient mixed-epoch cycle and a wedge. Useful for
	// measuring what the compatibility check buys.
	ModeDrainless
	// ModeEpoch forces the conservative epoch fence even for provably
	// compatible pairs.
	ModeEpoch
)

var modeNames = []string{ModeAuto: "auto", ModeDrainless: "drainless", ModeEpoch: "epoch"}

// Plan is a complete, replayable fault schedule, built by ParseSpec. The
// zero Plan injects nothing.
type Plan struct {
	// Seed keys the stateless signal-fate hash; two plans with different
	// seeds drop/delay different signal instances at the same probabilities.
	Seed uint64

	Flaps  []LinkFlap
	Stalls []EjectStall

	// Events are the persistent topology events in batch order
	// (CompareEvents); they require the reconfiguration engine, whose
	// transitions Mode picks.
	Events []Event
	Mode   Mode

	// Drop is the per-kind loss probability for UPP protocol signals
	// (indexed by network.SignalReq/SignalAck/SignalStop).
	Drop [network.NumSignalKinds]float64
	// DelayProb delays a surviving signal by 1..DelayMax extra cycles.
	DelayProb float64
	DelayMax  int
}

// Persistent reports whether the plan contains topology-changing events
// (kills, hot-adds, chiplet fail-stops), which the reconfiguration engine
// carries out.
func (p *Plan) Persistent() bool { return len(p.Events) > 0 }

// Injector applies a Plan to one Network. It implements
// network.FaultInjector.
type Injector struct {
	net   *network.Network
	plan  Plan
	links []*topology.Link // resolved flap targets, parallel to plan.Flaps
	down  []bool           // current applied state, parallel to plan.Flaps
}

// NewInjector validates the transient portion of plan (flaps, stalls,
// signal fates) against the network's topology and builds an Injector
// without installing it; reconfig.Attach is the one entry point that
// installs a plan, running this injector bare when the plan has nothing
// persistent and embedding it in its engine otherwise. Flap targets must
// be in-range mesh links (vertical links never flap: the paper's fault
// model keeps the TSV/bump layer out of scope, and UPP's correctness
// leans on the up link existing).
func NewInjector(n *network.Network, plan Plan) (*Injector, error) {
	topo := n.Topo
	links := make([]*topology.Link, len(plan.Flaps))
	for i, fl := range plan.Flaps {
		if fl.Link < 0 || fl.Link >= len(topo.Links) {
			return nil, fmt.Errorf("faults: flap %d targets link %d, out of range [0, %d)", i, fl.Link, len(topo.Links))
		}
		l := topo.Links[fl.Link]
		if l.Vertical {
			return nil, fmt.Errorf("faults: flap %d targets vertical link %d (%d-%d); only mesh links flap", i, fl.Link, l.A, l.B)
		}
		if fl.End <= fl.Start {
			return nil, fmt.Errorf("faults: flap %d has empty window [%d, %d)", i, fl.Start, fl.End)
		}
		links[i] = l
	}
	for i, st := range plan.Stalls {
		if int(st.Node) < 0 || int(st.Node) >= topo.NumNodes() {
			return nil, fmt.Errorf("faults: stall %d targets node %d, out of range", i, st.Node)
		}
		if st.End <= st.Start {
			return nil, fmt.Errorf("faults: stall %d has empty window [%d, %d)", i, st.Start, st.End)
		}
	}
	return &Injector{net: n, plan: plan, links: links, down: make([]bool, len(plan.Flaps))}, nil
}

// BeginCycle applies flap-window edges. It runs before event delivery
// each cycle on the coordinator goroutine, so link state is stable for
// the whole cycle under every kernel.
func (in *Injector) BeginCycle(cycle sim.Cycle) {
	for i := range in.plan.Flaps {
		fl := &in.plan.Flaps[i]
		want := cycle >= fl.Start && cycle < fl.End
		if want != in.down[i] {
			in.down[i] = want
			in.net.SetLinkDown(in.links[i], want)
		}
	}
}

// splitmix64 finalizer: a full-avalanche mix of one 64-bit word.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0, 1) with 53 uniform bits.
func unit(h uint64) float64 { return float64(h>>11) * (1.0 / (1 << 53)) }

// SignalFate decides drop/delay for one signal transmission. Pure
// function of the plan seed and the call arguments: any kernel asking in
// any order gets the same verdict.
func (in *Injector) SignalFate(kind network.SignalKind, popupID uint64, hop int, cycle sim.Cycle) network.Fate {
	if in.plan.Drop[kind] == 0 && in.plan.DelayProb == 0 {
		return network.Fate{}
	}
	h := mix(in.plan.Seed ^ 0xa0761d6478bd642f ^
		uint64(kind)<<56 ^ uint64(hop)<<48 ^ uint64(cycle)<<16 ^ popupID)
	if unit(h) < in.plan.Drop[kind] {
		return network.Fate{Drop: true}
	}
	if in.plan.DelayProb > 0 && in.plan.DelayMax > 0 {
		h2 := mix(h ^ 0x9e3779b97f4a7c15)
		if unit(h2) < in.plan.DelayProb {
			return network.Fate{Delay: 1 + sim.Cycle((h2>>8)%uint64(in.plan.DelayMax))}
		}
	}
	return network.Fate{}
}

// EjectionStalled reports whether node's NI consume pass is suppressed
// this cycle.
func (in *Injector) EjectionStalled(node topology.NodeID, cycle sim.Cycle) bool {
	for i := range in.plan.Stalls {
		st := &in.plan.Stalls[i]
		if st.Node == node && cycle >= st.Start && cycle < st.End {
			return true
		}
	}
	return false
}

// maxWindows caps a window series: a spec is command-line or $UPP_FAULTS
// input, and the injector scans every window each cycle.
const maxWindows = 10000

// series is one kind of transient window as a spec describes it: n windows
// of dur cycles, the i-th starting i*every cycles after the plan's start
// plus a jitter of at most every/4. keys are its three spec keys.
type series struct {
	n, every, dur int
	keys          [3]string
}

// resolve fills the unset (zero) every and dur with the defaults given and
// clamps dur to every/2, so windows on one target never overlap. It then
// rejects a series longer than maxWindows, one whose windows are empty (a
// degenerate spec such as flapevery=1 would otherwise inject nothing) and
// one whose last window would end past the last representable cycle.
func (s *series) resolve(every, dur int, start sim.Cycle) error {
	if s.every <= 0 {
		s.every = every
	}
	if s.dur <= 0 {
		s.dur = dur
	}
	s.dur = min(s.dur, s.every/2)
	if s.n == 0 {
		return nil
	}
	if s.n > maxWindows {
		return fmt.Errorf("faults: %s=%d exceeds the limit of %d windows", s.keys[0], s.n, maxWindows)
	}
	if s.dur == 0 {
		return fmt.Errorf("faults: %s=%d gives empty windows, want start<end (check %s/%s)", s.keys[1], s.every, s.keys[1], s.keys[2])
	}
	// The last window ends by start + (n-1)*every + every/4 + dur; with dur
	// at most every/2 the subtraction below cannot overflow.
	room := math.MaxInt64 - start - sim.Cycle(s.dur+s.every/4)
	if room < 0 || sim.Cycle(s.n-1) > room/sim.Cycle(s.every) {
		return fmt.Errorf("faults: %s=%d with %s=%d and start=%d ends past the last cycle", s.keys[0], s.n, s.keys[1], s.every, start)
	}
	return nil
}

// place draws the series' windows over targets candidates, each window's
// jitter and then its target from rng, and hands them to add.
func (s *series) place(rng *sim.RNG, start sim.Cycle, targets int, add func(target int, start, end sim.Cycle)) {
	for i := 0; i < s.n && targets > 0; i++ {
		at := start + sim.Cycle(i*s.every+rng.Intn(s.every/4+1))
		add(rng.Intn(targets), at, at+sim.Cycle(s.dur))
	}
}

// ParseSpec builds a Plan from a compact comma-separated key=value spec —
// the UPP_FAULTS / -fault-plan command-line syntax and RunSpec.FaultPlan,
// the one way a run names its faults. Keys:
//
//	seed=N        hash seed and window-placement seed (default 1)
//	flaps=N       link-flap windows       flapevery=N  flapdur=N
//	stalls=N      ejection-stall windows  stallevery=N stalldur=N
//	dropreq=P dropack=P dropstop=P  per-kind signal-loss probabilities
//	drop=P        shorthand: all three kinds at once
//	delayprob=P   delaymax=N    signal delay injection
//	start=N       first fault window start cycle
//	kill=L@C      persistent link kill: link L dies at cycle C (repeatable)
//	add=L@C       hot-add: Faulty link L heals at cycle C (repeatable)
//	killchiplet=K@C  fail-stop chiplet K's compute at cycle C (repeatable)
//	mode=M        auto | drainless | epoch: the reconfiguration engine's
//	              transitions; only with a kill, add or killchiplet event
//
// Example: "seed=7,flaps=4,drop=0.2,delayprob=0.1". Flaps target
// pseudo-randomly chosen mesh links and stalls cores, staggered so that
// windows on one target never overlap; the persistent events come back in
// batch order. Install the plan with reconfig.Attach. A spec whose windows
// would be empty (e.g. flapevery=1, whose duration clamp collapses the
// window), too many or past the last cycle is an error here, not a silent
// no-op fault.
func ParseSpec(topo *topology.Topology, spec string) (Plan, error) {
	var plan Plan
	seed, start, modeSet := 1, 0, false
	flaps := series{keys: [3]string{"flaps", "flapevery", "flapdur"}}
	stalls := series{keys: [3]string{"stalls", "stallevery", "stalldur"}}
	ints := map[string]*int{
		"seed": &seed, "start": &start, "delaymax": &plan.DelayMax,
		"flaps": &flaps.n, "flapevery": &flaps.every, "flapdur": &flaps.dur,
		"stalls": &stalls.n, "stallevery": &stalls.every, "stalldur": &stalls.dur,
	}
	req, ack, stop := &plan.Drop[network.SignalReq], &plan.Drop[network.SignalAck], &plan.Drop[network.SignalStop]
	probs := map[string][]*float64{
		"drop": {req, ack, stop}, "dropreq": {req}, "dropack": {ack}, "dropstop": {stop},
		"delayprob": {&plan.DelayProb},
	}
	events := map[string]EventKind{"kill": KillLink, "add": AddLink, "killchiplet": KillChiplet}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		if p, ok := ints[k]; ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want a non-negative integer)", v, k)
			}
			*p = n
		} else if ps, ok := probs[k]; ok {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want a probability in [0, 1])", v, k)
			}
			for _, dst := range ps {
				*dst = p
			}
		} else if kind, ok := events[k]; ok {
			ts, cs, _ := strings.Cut(v, "@")
			target, err1 := strconv.Atoi(ts)
			cyc, err2 := strconv.Atoi(cs)
			if err1 != nil || err2 != nil || target < 0 || cyc < 0 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want non-negative TARGET@CYCLE)", v, k)
			}
			plan.Events = append(plan.Events, Event{Cycle: sim.Cycle(cyc), Kind: kind, Target: target})
		} else if k == "mode" {
			m := slices.Index(modeNames, v)
			if m < 0 {
				return Plan{}, fmt.Errorf("faults: bad value %q for mode (want auto, drainless or epoch)", v)
			}
			plan.Mode, modeSet = Mode(m), true
		} else {
			return Plan{}, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	if modeSet && !plan.Persistent() {
		return Plan{}, fmt.Errorf("faults: mode=%s without a kill, add or killchiplet event", modeNames[plan.Mode])
	}
	slices.SortFunc(plan.Events, CompareEvents)
	if start <= 0 {
		start = 100
	}
	if plan.DelayProb > 0 && plan.DelayMax <= 0 {
		plan.DelayMax = 8
	}
	first := sim.Cycle(start)
	if err := flaps.resolve(1500, 300, first); err != nil {
		return Plan{}, err
	}
	if err := stalls.resolve(2000, 250, first); err != nil {
		return Plan{}, err
	}
	plan.Seed = uint64(seed)
	rng := sim.NewRNG(plan.Seed)
	var mesh []int
	for _, l := range topo.Links {
		if !l.Vertical {
			mesh = append(mesh, l.ID)
		}
	}
	flaps.place(rng, first, len(mesh), func(i int, s, e sim.Cycle) {
		plan.Flaps = append(plan.Flaps, LinkFlap{Link: mesh[i], Start: s, End: e})
	})
	cores := topo.Cores()
	stalls.place(rng, first, len(cores), func(i int, s, e sim.Cycle) {
		plan.Stalls = append(plan.Stalls, EjectStall{Node: cores[i], Start: s, End: e})
	})
	return plan, nil
}
