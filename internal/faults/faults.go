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
	"fmt"
	"sort"
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

// LinkKill is a persistent link failure: at Cycle the link is announced
// dead and never heals on its own. Unlike a LinkFlap — which only pauses
// traffic — a kill changes the topology, so the reconfiguration engine
// (internal/reconfig) must rebuild routing around it; the plain Injector
// refuses plans that contain one.
type LinkKill struct {
	Link  int // index into Topology.Links; must be a mesh (non-vertical) link
	Cycle sim.Cycle
}

// LinkAdd heals a construction-time Faulty link at Cycle — the hot-add /
// repair event. Routing starts using the link once the reconfiguration
// engine installs tables that include it.
type LinkAdd struct {
	Link  int
	Cycle sim.Cycle
}

// ChipletKill fail-stops one chiplet's compute at Cycle: its cores stop
// sourcing traffic and other cores stop targeting it. The chiplet's
// routers stay powered so in-flight packets drain (the fail-stop model of
// modular systems — a dead compute die, not a dead interposer region).
type ChipletKill struct {
	Chiplet int
	Cycle   sim.Cycle
}

// Plan is a complete, replayable fault schedule. The zero Plan injects
// nothing.
type Plan struct {
	// Seed keys the stateless signal-fate hash; two plans with different
	// seeds drop/delay different signal instances at the same probabilities.
	Seed uint64

	Flaps  []LinkFlap
	Stalls []EjectStall

	// Persistent topology events; require the reconfiguration engine.
	Kills        []LinkKill
	Adds         []LinkAdd
	ChipletKills []ChipletKill

	// Drop is the per-kind loss probability for UPP protocol signals
	// (indexed by network.SignalReq/SignalAck/SignalStop).
	Drop [network.NumSignalKinds]float64
	// DelayProb delays a surviving signal by 1..DelayMax extra cycles.
	DelayProb float64
	DelayMax  int
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return len(p.Flaps) == 0 && len(p.Stalls) == 0 && !p.Persistent() &&
		p.Drop == [network.NumSignalKinds]float64{} && p.DelayProb == 0
}

// Persistent reports whether the plan contains topology-changing events
// (kills, hot-adds, chiplet fail-stops), which the reconfiguration engine
// carries out.
func (p *Plan) Persistent() bool {
	return len(p.Kills) > 0 || len(p.Adds) > 0 || len(p.ChipletKills) > 0
}

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

// GenConfig shapes Generate's output. Zero values take the documented
// defaults; probabilities default to zero (off).
type GenConfig struct {
	Flaps     int // number of link-flap windows (default 0)
	FlapEvery int // cycles between flap starts (default 1500)
	FlapDur   int // flap length; clamped to FlapEvery/2 (default 300)

	Stalls     int // number of ejection-stall windows (default 0)
	StallEvery int // cycles between stall starts (default 2000)
	StallDur   int // stall length; clamped to StallEvery/2 (default 250)

	DropReq, DropAck, DropStop float64
	DelayProb                  float64
	DelayMax                   int // default 8 when DelayProb > 0

	Start sim.Cycle // first window start (default 100)
}

// Generate builds a reproducible Plan for a topology: flaps target
// pseudo-randomly chosen mesh links, stalls pseudo-randomly chosen cores,
// with starts staggered so windows on one target never overlap.
func Generate(topo *topology.Topology, seed uint64, g GenConfig) Plan {
	if g.FlapEvery <= 0 {
		g.FlapEvery = 1500
	}
	if g.FlapDur <= 0 {
		g.FlapDur = 300
	}
	if g.FlapDur > g.FlapEvery/2 {
		g.FlapDur = g.FlapEvery / 2
	}
	if g.StallEvery <= 0 {
		g.StallEvery = 2000
	}
	if g.StallDur <= 0 {
		g.StallDur = 250
	}
	if g.StallDur > g.StallEvery/2 {
		g.StallDur = g.StallEvery / 2
	}
	if g.Start <= 0 {
		g.Start = 100
	}
	if g.DelayProb > 0 && g.DelayMax <= 0 {
		g.DelayMax = 8
	}
	rng := sim.NewRNG(seed)
	var mesh []int
	for _, l := range topo.Links {
		if !l.Vertical {
			mesh = append(mesh, l.ID)
		}
	}
	plan := Plan{Seed: seed, DelayProb: g.DelayProb, DelayMax: g.DelayMax}
	plan.Drop[network.SignalReq] = g.DropReq
	plan.Drop[network.SignalAck] = g.DropAck
	plan.Drop[network.SignalStop] = g.DropStop
	for i := 0; i < g.Flaps && len(mesh) > 0; i++ {
		start := g.Start + sim.Cycle(i*g.FlapEvery+rng.Intn(g.FlapEvery/4+1))
		plan.Flaps = append(plan.Flaps, LinkFlap{
			Link:  mesh[rng.Intn(len(mesh))],
			Start: start,
			End:   start + sim.Cycle(g.FlapDur),
		})
	}
	cores := topo.Cores()
	for i := 0; i < g.Stalls && len(cores) > 0; i++ {
		start := g.Start + sim.Cycle(i*g.StallEvery+rng.Intn(g.StallEvery/4+1))
		plan.Stalls = append(plan.Stalls, EjectStall{
			Node:  cores[rng.Intn(len(cores))],
			Start: start,
			End:   start + sim.Cycle(g.StallDur),
		})
	}
	return plan
}

// ParseSpec builds a Plan from a compact comma-separated key=value spec —
// the UPP_FAULTS / -faults command-line syntax. Keys:
//
//	seed=N        hash seed and Generate seed (default 1)
//	flaps=N       link-flap windows       flapevery=N  flapdur=N
//	stalls=N      ejection-stall windows  stallevery=N stalldur=N
//	dropreq=P dropack=P dropstop=P  per-kind signal-loss probabilities
//	drop=P        shorthand: all three kinds at once
//	delayprob=P   delaymax=N    signal delay injection
//	start=N       first fault window start cycle
//	kill=L@C      persistent link kill: link L dies at cycle C (repeatable)
//	add=L@C       hot-add: Faulty link L heals at cycle C (repeatable)
//	killchiplet=K@C  fail-stop chiplet K's compute at cycle C (repeatable)
//
// Example: "seed=7,flaps=4,drop=0.2,delayprob=0.1". Install the plan
// with reconfig.Attach.
// Every window in the resulting plan is validated to be non-empty: a
// degenerate parameter combination (e.g. flapevery=1, whose duration
// clamp collapses the window) is an error here, not a silent no-op fault.
func ParseSpec(topo *topology.Topology, spec string) (Plan, error) {
	g := GenConfig{}
	var seed uint64 = 1
	var kills []LinkKill
	var adds []LinkAdd
	var chipKills []ChipletKill
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		switch k {
		case "seed", "flaps", "flapevery", "flapdur", "stalls", "stallevery", "stalldur", "delaymax", "start":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want a non-negative integer)", v, k)
			}
			switch k {
			case "seed":
				seed = uint64(n)
			case "flaps":
				g.Flaps = n
			case "flapevery":
				g.FlapEvery = n
			case "flapdur":
				g.FlapDur = n
			case "stalls":
				g.Stalls = n
			case "stallevery":
				g.StallEvery = n
			case "stalldur":
				g.StallDur = n
			case "delaymax":
				g.DelayMax = n
			case "start":
				g.Start = sim.Cycle(n)
			}
		case "drop", "dropreq", "dropack", "dropstop", "delayprob":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want a probability in [0, 1])", v, k)
			}
			switch k {
			case "drop":
				g.DropReq, g.DropAck, g.DropStop = p, p, p
			case "dropreq":
				g.DropReq = p
			case "dropack":
				g.DropAck = p
			case "dropstop":
				g.DropStop = p
			case "delayprob":
				g.DelayProb = p
			}
		case "kill", "add", "killchiplet":
			ts, cs, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want TARGET@CYCLE)", v, k)
			}
			target, err1 := strconv.Atoi(ts)
			cyc, err2 := strconv.Atoi(cs)
			if err1 != nil || err2 != nil || target < 0 || cyc < 0 {
				return Plan{}, fmt.Errorf("faults: bad value %q for %s (want non-negative TARGET@CYCLE)", v, k)
			}
			switch k {
			case "kill":
				kills = append(kills, LinkKill{Link: target, Cycle: sim.Cycle(cyc)})
			case "add":
				adds = append(adds, LinkAdd{Link: target, Cycle: sim.Cycle(cyc)})
			case "killchiplet":
				chipKills = append(chipKills, ChipletKill{Chiplet: target, Cycle: sim.Cycle(cyc)})
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	plan := Generate(topo, seed, g)
	plan.Kills = kills
	plan.Adds = adds
	plan.ChipletKills = chipKills
	// Reject degenerate windows instead of passing them through: a flap
	// or stall whose end does not follow its start would silently inject
	// nothing (or, worse, a miscomputed window could invert).
	for i, fl := range plan.Flaps {
		if fl.End <= fl.Start {
			return Plan{}, fmt.Errorf("faults: flap %d has window [%d, %d), want start<end (check flapevery/flapdur)", i, fl.Start, fl.End)
		}
	}
	for i, st := range plan.Stalls {
		if st.End <= st.Start {
			return Plan{}, fmt.Errorf("faults: stall %d has window [%d, %d), want start<end (check stallevery/stalldur)", i, st.Start, st.End)
		}
	}
	return plan, nil
}

// String renders a plan summary for logs and diagnostics.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan seed=%d flaps=%d stalls=%d drop=[req %.3g ack %.3g stop %.3g] delay=%.3g/max%d",
		p.Seed, len(p.Flaps), len(p.Stalls),
		p.Drop[network.SignalReq], p.Drop[network.SignalAck], p.Drop[network.SignalStop],
		p.DelayProb, p.DelayMax)
	if len(p.Flaps) > 0 {
		links := make([]int, 0, len(p.Flaps))
		for _, fl := range p.Flaps {
			links = append(links, fl.Link)
		}
		sort.Ints(links)
		fmt.Fprintf(&b, " flap-links=%v", links)
	}
	if p.Persistent() {
		fmt.Fprintf(&b, " kills=%d adds=%d chiplet-kills=%d", len(p.Kills), len(p.Adds), len(p.ChipletKills))
	}
	return b.String()
}
