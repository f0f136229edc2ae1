package experiments

import (
	"fmt"
	"os"

	"uppnoc/internal/faults"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// RunSpec is the one description of a simulated machine and of the
// traffic offered to it. Every runner, soak and benchmark of this package,
// uppsim and cmd/profile describe their system with it and build it with
// Assemble, so two runs that differ in one field differ in nothing else.
type RunSpec struct {
	Topo topology.SystemConfig
	// Scale, when non-nil, builds the scale-out system it describes
	// instead of Topo. Scale runs don't reuse composable's design-time
	// search (it is keyed on SystemConfig).
	Scale     *topology.ScaleConfig
	Faults    int
	FaultSeed uint64
	// FaultsPerLayer faults that many mesh links in every layer
	// (InjectFaultsPerLayer) instead of Faults' global count — the
	// fault-sweep robustness figure.
	FaultsPerLayer int
	// FaultPlan, when non-empty, attaches a runtime fault-injection plan
	// (faults.ParseSpec syntax: "flaps=4,drop=0.2,..."). UPP runs it with
	// the hardened config (signal timeout + retry) so injected signal loss
	// is recovered rather than fatal.
	FaultPlan string
	// Plan is a plan already built against the topology (the soaks
	// generate theirs); set FaultPlan or Plan, not both.
	Plan faults.Plan
	// Mode picks the reconfiguration engine's transitions when the plan
	// has a persistent event (default ModeAuto).
	Mode   reconfig.Mode
	Scheme SchemeName
	// SchemeOverride, when non-nil, is used instead of Scheme: for a
	// scheme no name describes (a threshold, a binding policy). Such a
	// run cannot be served from the result cache.
	SchemeOverride func(t *topology.Topology) (network.Scheme, error)
	VCsPerVNet     int
	// BufferDepth overrides the per-VC buffer depth when > 0 (ablation).
	BufferDepth int
	Pattern     traffic.Pattern
	Rate        float64 // flits/cycle/node offered
	// Workload, when non-empty (workload.ParseSpec syntax), names the
	// closed-loop collective that is the traffic source in place of the
	// Pattern/Rate generator (RunWorkload, the soaks).
	Workload  string
	Seed      uint64
	Dur       Durations
	UseUpDown bool
	// Adaptive selects odd-even minimal-adaptive local routing.
	Adaptive bool
	// VCT selects virtual cut-through flow control (forces BufferDepth to
	// hold a whole data packet when unset).
	VCT bool
	// TraceLimit, when > 0, prints the first N simulator events to
	// stderr.
	TraceLimit int
	// RouterArch selects the router microarchitecture ("iq", "oq",
	// "voq"); empty defers to UPP_ROUTER and then the iq default.
	RouterArch string
	// Kernel, Shards and DisablePool are network.Config's execution
	// strategy; a zero value defers to the host settings (UPP_KERNEL,
	// UPP_SHARDS, UPP_NOPOOL). They never change a result, so the cache
	// key leaves them out.
	Kernel      string
	Shards      int
	DisablePool bool
}

// Sim is an assembled simulation at cycle 0 with no traffic source yet.
// Net.Topo is the topology it was built on (static faults applied) and
// Net.Scheme() its scheme instance.
type Sim struct {
	Net *network.Network
	// Engine is the reconfiguration engine; nil unless the fault plan has
	// a persistent event (kill, add, killchiplet).
	Engine *reconfig.Engine
}

// TrafficSource is the injection side of a simulation, ticked once per
// cycle before Network.Step: a rate-driven traffic.Generator, a
// closed-loop workload.Engine or an open-loop workload.Replayer.
type TrafficSource interface {
	Tick(cycle sim.Cycle)
}

// Assemble builds the machine spec describes — topology (Topo or Scale,
// static faults), scheme, network.Config, host settings, network, fault
// plan — and is the only place in this package, uppsim and cmd/profile
// that does. Three things follow from the spec rather than from the
// caller: UPP is the hardened config exactly when a plan is attached,
// up*/down* local routing is forced by static faults or a persistent plan,
// and the network is seeded Seed+1. The caller attaches the traffic source
// (Sim.Generator, workloadEngine, a replayer, a coherence system) and
// measures.
func Assemble(spec RunSpec) (*Sim, error) {
	if spec.FaultPlan != "" && !spec.Plan.Empty() {
		return nil, fmt.Errorf("experiments: spec carries both FaultPlan %q and a parsed Plan", spec.FaultPlan)
	}
	planned := spec.FaultPlan != "" || !spec.Plan.Empty()
	var topo *topology.Topology
	var err error
	if spec.Scale != nil {
		topo, err = topology.BuildScale(*spec.Scale)
	} else {
		topo, err = topology.Build(spec.Topo)
	}
	if err != nil {
		return nil, err
	}
	if spec.Faults > 0 {
		if _, err := topo.InjectFaults(spec.Faults, spec.FaultSeed); err != nil {
			return nil, err
		}
	}
	if spec.FaultsPerLayer > 0 {
		if _, err := topo.InjectFaultsPerLayer(spec.FaultsPerLayer, spec.FaultSeed); err != nil {
			return nil, err
		}
	}
	var scheme network.Scheme
	switch {
	case spec.SchemeOverride != nil:
		scheme, err = spec.SchemeOverride(topo)
	case planned && spec.Scheme == SchemeUPP:
		// Runtime signal faults need the retry machinery.
		scheme = HardenedUPP()
	case spec.Scale == nil && spec.Faults == 0 && spec.FaultsPerLayer == 0:
		// topo is exactly what spec.Topo builds, so composable's
		// design-time search can be reused across runs.
		scheme, err = cachedScheme(spec.Topo, spec.Scheme, topo)
	default:
		scheme, err = MakeScheme(spec.Scheme, topo)
	}
	if err != nil {
		return nil, err
	}
	plan := spec.Plan
	if spec.FaultPlan != "" {
		if plan, err = faults.ParseSpec(topo, spec.FaultPlan); err != nil {
			return nil, err
		}
	}

	cfg := network.DefaultConfig()
	if spec.VCsPerVNet > 0 {
		cfg.Router.VCsPerVNet = spec.VCsPerVNet
	}
	if spec.BufferDepth > 0 {
		cfg.Router.BufferDepth = spec.BufferDepth
	}
	if spec.VCT {
		cfg.Router.VCT = true
		if cfg.Router.BufferDepth < message.DataPacketFlits {
			cfg.Router.BufferDepth = message.DataPacketFlits
		}
	}
	cfg.Seed = spec.Seed + 1
	// Persistent topology events rebuild routing at runtime, which needs
	// the fault-indexed up*/down* local (XY consults Link.Faulty at route
	// time and would wedge on a mid-run kill).
	cfg.UseUpDown = spec.UseUpDown || spec.Faults > 0 || spec.FaultsPerLayer > 0 || plan.Persistent()
	cfg.Adaptive = spec.Adaptive
	// An explicit execution-strategy field beats its host variable.
	host, err := hostEnv()
	if err != nil {
		return nil, err
	}
	cfg.Kernel, cfg.Shards = spec.Kernel, spec.Shards
	if cfg.Kernel == "" {
		cfg.Kernel = host.kernel
	}
	if cfg.Shards == 0 {
		cfg.Shards = host.shards
	}
	cfg.RouterArch = host.arch(spec.RouterArch)
	cfg.DisablePool = spec.DisablePool || host.noPool
	n, err := network.New(topo, cfg, scheme)
	if err != nil {
		return nil, err
	}
	s := &Sim{Net: n}
	if planned {
		if s.Engine, err = reconfig.Attach(n, reconfig.Config{Plan: plan, Mode: spec.Mode}); err != nil {
			return nil, err
		}
	}
	if spec.TraceLimit > 0 {
		n.SetTracer(network.WriteTracer(os.Stderr, spec.TraceLimit))
	}
	return s, nil
}

// Generator attaches the open-loop source: pattern traffic at rate. When
// the machine has a reconfiguration engine the generator is gated on it,
// so a fail-stopped chiplet's cores neither source nor sink new packets.
func (s *Sim) Generator(pattern traffic.Pattern, rate float64, seed uint64) *traffic.Generator {
	g := traffic.NewGenerator(s.Net, pattern, rate, seed)
	if eng := s.Engine; eng != nil {
		topo := s.Net.Topo
		g.CoreAlive = func(id topology.NodeID) bool { return eng.ChipletAlive(topo.Node(id).Chiplet) }
	}
	return g
}

// Drive is the one drive loop: tick the source, step the network, until
// the network reaches cycle until or done (when non-nil) reports true.
func Drive(n *network.Network, src TrafficSource, until sim.Cycle, done func() bool) {
	for n.Cycle() < until && (done == nil || !done()) {
		src.Tick(n.Cycle())
		n.Step()
	}
}
