package experiments

import (
	"fmt"
	"os"
	"sync"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// RunSpec is the one description of a simulated machine and of the
// traffic offered to it. Every runner, soak and benchmark of this package,
// uppsim and the root BenchmarkStep describe their system with it and build it with
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
	// (faults.ParseSpec syntax: "flaps=4,drop=0.2,...", with mode= picking
	// the reconfiguration engine's transitions). UPP hardens its signals
	// (timeout + retry) whenever a plan is attached, so injected signal
	// loss is recovered rather than fatal.
	FaultPlan string
	Scheme    SchemeName
	// UPP sets UPP's parameters (Fig. 13's threshold, the binding and
	// signal-gap ablations); the zero value is the paper's configuration.
	// Valid only under Scheme upp. Signal hardening is not set here: it
	// follows the fault plan.
	UPP        core.Config
	VCsPerVNet int
	// BufferDepth overrides the per-VC buffer depth when > 0 (ablation).
	BufferDepth int
	Pattern     traffic.Pattern
	Rate        float64 // flits/cycle/node offered
	// Workload, when non-empty, names the closed-loop traffic source in
	// place of the Pattern/Rate generator: a collective (workload.ParseSpec
	// syntax) or a full-system coherence benchmark (coherence.ParseSpec,
	// "coherence:canneal,scale=0.25"). Run then ignores Dur: the workload
	// runs to completion or for MaxCycles cycles (0 = 400 000), and one
	// still unfinished then is reported as Point.Completed=false — under a
	// scheme without recovery a closed loop can genuinely deadlock, which
	// is a result, not an error.
	Workload  string
	MaxCycles int
	// Record captures every message a collective injects into Point.Trace
	// (the trace record frontend). A recorded run is never cached.
	Record bool
	// DownLinks reads every boundary router's down-link flit count into
	// Point.DownLinks when the run ends (the load-balance figure).
	DownLinks bool
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
	// "voq"); empty is iq.
	RouterArch string
	// Kernel and Shards are network.Config's execution strategy; zero is
	// network.New's default (active, GOMAXPROCS). They never change a
	// result, so the cache key leaves them out.
	Kernel string
	Shards int
}

// horizon is a workload run's cycle bound.
func (s RunSpec) horizon() int {
	if s.MaxCycles > 0 {
		return s.MaxCycles
	}
	return 400000
}

// check refuses by name what no run takes: a negative count or load (zero
// is "the default"), UPP settings under another scheme, an unknown
// kernel, a negative shard count.
func (s RunSpec) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"VCsPerVNet", s.VCsPerVNet}, {"BufferDepth", s.BufferDepth},
		{"Dur.Warmup", s.Dur.Warmup}, {"Dur.Measure", s.Dur.Measure}, {"MaxCycles", s.MaxCycles},
		{"Faults", s.Faults}, {"FaultsPerLayer", s.FaultsPerLayer},
	} {
		if f.v < 0 {
			return fmt.Errorf("experiments: RunSpec.%s is %d; want >= 0 (0 = default)", f.name, f.v)
		}
	}
	if !(s.Rate >= 0) { // negative or NaN
		return fmt.Errorf("experiments: RunSpec.Rate is %v; want a load >= 0", s.Rate)
	}
	if s.UPP != (core.Config{}) && s.Scheme != SchemeUPP {
		return fmt.Errorf("experiments: UPP settings %+v under scheme %q", s.UPP, s.Scheme)
	}
	return network.Config{Router: network.DefaultConfig().Router, Kernel: s.Kernel, Shards: s.Shards}.Validate()
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
// static faults), scheme, network.Config (execution strategy included),
// network, fault plan — and is the only place in this package, uppsim
// and the root benchmarks that does. Two things follow from the spec rather than from the caller:
// up*/down* local routing is forced by static faults or a persistent
// plan, and the network is seeded Seed+1. (UPP hardens its signals
// itself, exactly when a plan is attached.) The caller attaches
// the traffic source (Sim.Generator, workloadEngine, a replayer, a
// coherence system) and measures.
func Assemble(spec RunSpec) (*Sim, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	if _, err := routing.BindingPolicy(spec.UPP.Binding); err != nil {
		return nil, err
	}
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
	case spec.Scheme == SchemeUPP:
		scheme = core.New(spec.UPP)
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
	var plan faults.Plan
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
	cfg.Kernel, cfg.Shards, cfg.RouterArch = spec.Kernel, spec.Shards, spec.RouterArch
	n, err := network.New(topo, cfg, scheme)
	if err != nil {
		return nil, err
	}
	s := &Sim{Net: n}
	if spec.FaultPlan != "" {
		if s.Engine, err = reconfig.Attach(n, plan); err != nil {
			return nil, err
		}
	}
	if spec.TraceLimit > 0 {
		n.SetTracer(network.WriteTracer(os.Stderr, spec.TraceLimit))
	}
	return s, nil
}

// composableCache reuses the design-time restriction search across runs of
// the same topology configuration (the tables are immutable and the
// structure is identical for equal configs).
var (
	composableMu    sync.Mutex
	composableCache = map[topology.SystemConfig]*composable.Tables{}
)

// cachedScheme is MakeScheme for a topology built from cfg with nothing
// done to it: composable's scheme is built once per configuration.
func cachedScheme(cfg topology.SystemConfig, name SchemeName, topo *topology.Topology) (network.Scheme, error) {
	if name != SchemeComposable {
		return MakeScheme(name, topo)
	}
	composableMu.Lock()
	defer composableMu.Unlock()
	if s, ok := composableCache[cfg]; ok {
		return s, nil
	}
	s, err := composable.BuildTables(topo)
	if err != nil {
		return nil, err
	}
	composableCache[cfg] = s
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
