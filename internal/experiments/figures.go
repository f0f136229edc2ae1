package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

// Settings is what the figures binary hands every experiment.
type Settings struct {
	Dur Durations
	// Scale is the full-system access-quota scale (1.0 = the calibrated
	// profile).
	Scale float64
	Opts  PoolOptions
}

// Experiment is one entry of the evaluation as `figures -exp` names it. A
// sweep entry is data — its figures, which Tables measures together; every
// other entry makes its tables in run.
type Experiment struct {
	ID string
	// InAll reports whether `figures -exp all` runs the entry.
	InAll bool
	// figs lists a sweep entry's figures at the full-system access-quota
	// scale (only the full-system figure reads it).
	figs func(scale float64) []figure
	run  func(Settings) ([]Table, error)
}

// Tables makes the tables of the entries es, in their order. Every curve
// of every sweep figure among them goes through one Sweep, so one curve's
// last point does not idle the workers other curves can use; then each
// figure reduces its curves, and each other entry runs.
func Tables(es []Experiment, s Settings) ([]Table, error) {
	var cs []SweepCurve
	var pending []func() ([]Table, error)
	for _, e := range es {
		if e.run != nil {
			pending = append(pending, func() ([]Table, error) { return e.run(s) })
			continue
		}
		for _, f := range e.figs(s.Scale) {
			lo := len(cs)
			cs = append(cs, f.curves(s.Dur)...)
			hi := len(cs)
			pending = append(pending, func() ([]Table, error) { return f.fromCurves(cs[lo:hi]) })
		}
	}
	if err := Sweep(cs, s.Opts); err != nil {
		return nil, err
	}
	var out []Table
	for _, tables := range pending {
		ts, err := tables()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// A figure is a sweep figure as data. The template at every point of the
// axes' product (first axis outermost) is one curve, swept over rates or,
// when rates is nil, run once: at its own Rate, or its Workload to
// completion. Each of tables has a row per curve or per measured point
// that opens with the curve's key; reduce, when set, makes further tables
// from the whole list of curves (a figure that compares across them),
// failing on a run it cannot read.
type figure struct {
	id       string
	template RunSpec
	axes     []axis
	rates    []float64
	key      func(RunSpec) []any
	tables   []figTable
	reduce   func([]SweepCurve) ([]Table, error)
}

// figTable is one table of a figure: after the key, a row holds either
// point's cells for one measured point or curve's cells for the curve.
type figTable struct {
	Table
	point func(Point) []any
	curve func(Curve) []any
}

// An axis is one parameter a figure varies: its name and, per value, the
// value's label and its edit of the spec.
type axis struct {
	name   string
	labels []string
	set    []func(*RunSpec)
}

// along is the axis name over values; set applies one value to a spec.
func along[T any](name string, set func(*RunSpec, T), values ...T) axis {
	a := axis{name: name}
	for _, v := range values {
		label := fmt.Sprint(v)
		if p, ok := any(v).(traffic.Pattern); ok {
			label = p.Name()
		}
		a.labels = append(a.labels, label)
		a.set = append(a.set, func(s *RunSpec) { set(s, v) })
	}
	return a
}

var (
	vcsAxis    = along("vcs", func(s *RunSpec, v int) { s.VCsPerVNet = v }, 1, 4)
	schemeAxis = along("scheme", func(s *RunSpec, v SchemeName) { s.Scheme = v }, ComparedSchemes()...)
)

func patternAxis(ps ...traffic.Pattern) axis {
	return along("pattern", func(s *RunSpec, p traffic.Pattern) { s.Pattern = p }, ps...)
}

func workloadAxis(ws ...string) axis {
	return along("workload", func(s *RunSpec, w string) { s.Workload = w }, ws...)
}

// curves lists the figure's curves at dur, each labelled by the figure
// and its axis values.
func (f figure) curves(dur Durations) []SweepCurve {
	cs := []SweepCurve{{Spec: f.template, Rates: f.rates, Curve: Curve{Label: f.id}}}
	cs[0].Spec.Dur = dur
	for _, a := range f.axes {
		var next []SweepCurve
		for _, c := range cs {
			for i, set := range a.set {
				c := c
				set(&c.Spec)
				c.Label += " " + a.name + "=" + a.labels[i]
				next = append(next, c)
			}
		}
		cs = next
	}
	return cs
}

// fromCurves reduces the figure's measured curves to its tables.
func (f figure) fromCurves(cs []SweepCurve) ([]Table, error) {
	var out []Table
	for _, ft := range f.tables {
		t := ft.Table
		for _, c := range cs {
			if ft.curve != nil {
				t.AddRowf(append(f.key(c.Spec), ft.curve(c.Curve)...)...)
				continue
			}
			for _, pt := range c.Points {
				t.AddRowf(append(f.key(c.Spec), ft.point(pt)...)...)
			}
		}
		out = append(out, t)
	}
	if f.reduce != nil {
		ts, err := f.reduce(cs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.id, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// atSat is the curve's last point under the latency cap (zero when there
// is none): the "at saturation" readings.
func atSat(c Curve) (p Point) {
	for _, pt := range c.Points {
		if !pt.Saturated {
			p = pt
		}
	}
	return p
}

// Point and curve cells several figures share.
func popupPoint(p Point) []any { return []any{p.Rate, p.TotalLat, p.Throughput, p.Popups, p.Saturated} }
func upwardCurve(c Curve) []any {
	return []any{c.ZeroLoadLatency, c.SaturationThroughput, atSat(c).Upward}
}

// Experiments is the evaluation in output order: every name `figures -exp`
// accepts besides "all" and the full-system figures' aliases.
func Experiments() []Experiment {
	base, uniform, rates := topology.BaselineConfig(), traffic.UniformRandom{}, DefaultRates()
	ablation := RunSpec{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1, Pattern: uniform}
	figs := func(fs ...figure) func(float64) []figure { return func(float64) []figure { return fs } }
	one := func(inAll bool, f figure) Experiment { return Experiment{ID: f.id, InAll: inAll, figs: figs(f)} }
	static := func(t func() Table) func(Settings) ([]Table, error) {
		return func(Settings) ([]Table, error) { return []Table{t()}, nil }
	}
	with := func(s RunSpec, seed uint64) RunSpec { s.Seed = seed; return s }
	return []Experiment{
		{ID: "table1", InAll: true, run: static(Table1)},
		{ID: "table2", InAll: true, run: static(Table2)},
		{ID: "fig2", InAll: true, run: func(s Settings) ([]Table, error) { return Fig2(s.Opts) }},
		// Fig. 7: four synthetic patterns x {composable, remote control,
		// UPP} x {1,4} VCs and the paper's headline numbers (+18~72%
		// throughput, -4.5~8.2% latency).
		one(true, latencyFigure("fig7", base, traffic.Patterns()...)),
		// Figs. 8, 12 and 15: one coherence run per benchmark, VC count and
		// scheme, at the -scale access quota.
		{ID: "fullsystem", InAll: true, figs: func(scale float64) []figure { return []figure{fullSystemFigure(scale)} }},
		// Fig. 9: the 128-core system (4x8 interposer, eight chiplets).
		one(true, latencyFigure("fig9", topology.LargeConfig(), uniform)),
		// Fig. 10: 2/4/8 boundary routers per chiplet.
		one(true, figure{
			id:       "fig10",
			template: RunSpec{Topo: base, Pattern: uniform, Seed: 23},
			axes:     []axis{along("boundaries", func(s *RunSpec, b int) { s.Topo.BoundaryPerChiplet = b }, 2, 4, 8), vcsAxis, schemeAxis},
			rates:    rates,
			reduce:   fig10Tables,
		}),
		// Fig. 11: UPP with 0..20 faulty links. The paper omits the
		// baselines: composable's design-time search cannot rerun online
		// and remote control's permission tree is hard-wired.
		one(true, figure{
			id:       "fig11",
			template: RunSpec{Topo: base, Scheme: SchemeUPP, Pattern: uniform, Seed: 31, FaultSeed: 1234, UseUpDown: true},
			axes:     []axis{vcsAxis, along("faults", func(s *RunSpec, n int) { s.Faults = n }, 0, 1, 5, 10, 15, 20)},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{s.Faults, s.VCsPerVNet} },
			tables: []figTable{{
				Table: Table{ID: "fig11", Title: "UPP on faulty systems (latency vs injection rate)",
					Header: []string{"faulty_links", "vcs", "rate", "latency", "throughput", "saturated"},
					Notes:  []string{"paper: saturation throughput degrades gracefully and latency rises slightly with more faults"}},
				point: func(p Point) []any { return []any{p.Rate, p.TotalLat, p.Throughput, p.Saturated} },
			}, {
				Table: Table{ID: "fig11_summary", Title: "UPP faulty-system saturation summary",
					Header: []string{"faulty_links", "vcs", "sat_throughput", "low_load_latency", "upward_packets_at_sat"}},
				curve: func(c Curve) []any { return []any{c.SaturationThroughput, c.ZeroLoadLatency, atSat(c).Upward} },
			}},
		}),
		// Fig. 13: detection thresholds of 20/100/1000 cycles barely move
		// the saturation throughput, and upward packets stay rare.
		one(true, figure{
			id:       "fig13",
			template: RunSpec{Topo: base, Scheme: SchemeUPP, Pattern: uniform, Seed: 47},
			axes:     []axis{vcsAxis, along("threshold", func(s *RunSpec, th int) { s.UPP.Threshold = th }, 20, 100, 1000)},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{s.UPP.Threshold, s.VCsPerVNet} },
			tables: []figTable{{
				Table: Table{ID: "fig13", Title: "UPP detection-threshold sensitivity",
					Header: []string{"threshold", "vcs", "rate", "latency", "throughput", "upward_pct", "saturated"},
					Notes: []string{"paper: the threshold has little impact on saturation throughput",
						"paper: upward packets stay under ~0.4% of packets with 4 VCs, higher but harmless with 1 VC"}},
				point: func(p Point) []any {
					upPct := 0.0
					if p.Packets > 0 {
						upPct = 100 * float64(p.Upward) / float64(p.Packets)
					}
					return []any{p.Rate, p.TotalLat, p.Throughput, fmt.Sprintf("%.3f%%", upPct), p.Saturated}
				},
			}, {
				Table: Table{ID: "fig13_summary", Title: "Saturation throughput per threshold", Header: []string{"threshold", "vcs", "sat_throughput"}},
				curve: func(c Curve) []any { return []any{c.SaturationThroughput} },
			}},
		}),
		// fault_sweep: fig11 with 0/2/4 faulty links in every layer.
		// Unlike a global budget, which random placement can concentrate
		// in one mesh, this puts uniform pressure on every layer — the
		// worst case for UPP's up-port timeout detection.
		one(true, figure{
			id:       "fault_sweep",
			template: RunSpec{Topo: base, Scheme: SchemeUPP, Pattern: uniform, Seed: 31, FaultSeed: 4321, UseUpDown: true},
			axes:     []axis{vcsAxis, along("faults_per_layer", func(s *RunSpec, n int) { s.FaultsPerLayer = n }, 0, 2, 4)},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{s.FaultsPerLayer, s.VCsPerVNet} },
			tables: []figTable{{
				Table: Table{ID: "fault_sweep", Title: "UPP with per-layer faulty links (latency vs injection rate)",
					Header: []string{"faults_per_layer", "vcs", "rate", "latency", "throughput", "popups", "saturated"},
					Notes: []string{"faults are injected per layer (InjectFaultsPerLayer): every chiplet mesh and the interposer mesh lose the same number of links",
						"expected: graceful saturation-throughput degradation, mirroring fig11's global-fault trend"}},
				point: popupPoint,
			}, {
				Table: Table{ID: "fault_sweep_summary", Title: "UPP per-layer-fault saturation summary",
					Header: []string{"faults_per_layer", "vcs", "sat_throughput", "low_load_latency", "popups_at_sat"}},
				curve: func(c Curve) []any { return []any{c.SaturationThroughput, c.ZeroLoadLatency, atSat(c).Popups} },
			}},
		}),
		{ID: "fig14", InAll: true, run: static(Fig14)},
		// load_balance: Sec. III-B's argument measured on the vertical links
		// at a sub-saturation uniform load.
		one(true, figure{
			id:       "load_balance",
			template: RunSpec{Topo: base, VCsPerVNet: 1, Pattern: uniform, Rate: 0.04, Seed: 4, DownLinks: true},
			axes:     []axis{schemeAxis},
			reduce:   loadBalanceTables,
		}),
		// tail_latency: percentiles at moderate loads. A packet that would
		// wait forever in a wedged network is rescued by a popup, at the
		// cost of the detection timeout plus the protocol round trip.
		one(true, figure{
			id:       "tail_latency",
			template: RunSpec{Topo: base, Pattern: uniform, Seed: 17},
			axes:     []axis{vcsAxis, along("rate", func(s *RunSpec, r float64) { s.Rate = r }, 0.03, 0.05), schemeAxis},
			key:      func(s RunSpec) []any { return []any{s.Scheme, s.VCsPerVNet} },
			tables: []figTable{{
				Table: Table{ID: "tail_latency", Title: "Latency percentiles per scheme (uniform random)",
					Header: []string{"scheme", "vcs", "rate", "p50", "p99", "max", "mean"},
					Notes:  []string{"UPP's mean and p50 lead; its max reflects rescued packets (timeout + popup round trip)"}},
				point: func(p Point) []any { return []any{p.Rate, p.LatP50, p.LatP99, p.LatMax, p.TotalLat} },
			}},
		}),
		// collectives: every workload closed-loop under the paper's three
		// schemes, completion time the figure of merit. UPP tracks the
		// unconstrained baseline while composable pays its path
		// restrictions and remote control its injection holds.
		one(true, figure{
			id:       "collectives",
			template: RunSpec{Topo: base, Seed: 11},
			axes:     []axis{workloadAxis(append(workload.Names(), "ring_allreduce:flits=10", "all_to_all:flits=10")...), schemeAxis},
			key:      func(s RunSpec) []any { return []any{s.Workload, s.Scheme} },
			tables: []figTable{{
				Table: Table{ID: "collectives", Title: "Collective workload completion: UPP vs remote control vs composable",
					Header: []string{"workload", "scheme", "completed", "finish_cycle", "messages",
						"avg_lat", "net_lat", "queue_lat", "upward", "popups", "signals", "inj_holds"},
					Notes: []string{"closed-loop dependency-driven traffic (DESIGN.md sec. 11): completion time is the figure of merit",
						"a workload that cannot finish within the horizon reports completed=false"}},
				point: func(p Point) []any {
					return []any{p.Completed, p.FinishCycle, p.Messages, p.TotalLat, p.NetLat, p.QueueLat, p.Upward, p.Popups, p.Signals, p.InjectionHolds}
				},
			}},
		}),
		// router_compare: the iq, oq and voq routers at equal total buffer
		// budget per port (router.BufferBudget: oq moves half of each input
		// VC's depth into output staging, voq re-disciplines allocation over
		// the same buffers), on the collectives that stress all-to-all
		// pressure and the vertical links.
		one(true, figure{
			id:       "router_compare",
			template: RunSpec{Topo: base, Seed: 11},
			axes: []axis{
				workloadAxis("ring_allreduce", "ring_allreduce:flits=10", "all_to_all:flits=10"), schemeAxis,
				along("router", func(s *RunSpec, a string) { s.RouterArch = a }, router.ArchIQ, router.ArchOQ, router.ArchVOQ),
			},
			key: func(s RunSpec) []any {
				return []any{s.Workload, s.Scheme, s.RouterArch, router.BufferBudget(network.DefaultConfig().Router)}
			},
			tables: []figTable{{
				Table: Table{ID: "router_compare", Title: "Router microarchitecture comparison at equal buffer budget",
					Header: []string{"workload", "scheme", "router", "budget", "completed",
						"finish_cycle", "messages", "avg_lat", "upward", "popups", "inj_holds"},
					Notes: []string{"iq/oq/voq at identical per-port flit-slot budgets (DESIGN.md sec. 12)",
						"closed-loop collectives: completion time is the figure of merit"}},
				point: func(p Point) []any {
					return []any{p.Completed, p.FinishCycle, p.Messages, p.TotalLat, p.Upward, p.Popups, p.InjectionHolds}
				},
			}},
		}),
		{ID: "reconfig", InAll: true, run: func(s Settings) ([]Table, error) { return Reconfig(s.Dur, s.Opts) }},
		// scale: UPP against remote control on the small and large
		// scale-out presets. Not in -exp all: they are 10-100x the paper's
		// systems. A full sweep of huge is a multi-hour run; the benchmark's
		// mesh8192_sharded workload and CI's scale-smoke cover it.
		one(false, figure{
			id:       "scale",
			template: RunSpec{Pattern: uniform, Seed: 11},
			axes: []axis{
				along("system", func(s *RunSpec, sys ScaleSystem) { s.Scale = &sys.Config }, ScaleSystems()[:2]...),
				along("scheme", func(s *RunSpec, v SchemeName) { s.Scheme = v }, SchemeRemoteControl, SchemeUPP),
			},
			rates: scaleRates(),
			key:   func(s RunSpec) []any { return []any{scaleLabel(*s.Scale), s.Scale.NumRouters(), s.Scheme} },
			tables: []figTable{{
				Table: Table{ID: "scale", Title: "Scale-out systems: latency vs injection rate (uniform random)",
					Header: []string{"system", "routers", "scheme", "rate", "latency", "throughput", "popups", "saturated"}},
				point: popupPoint,
			}, {
				Table: Table{ID: "scale_summary", Title: "Scale-out saturation summary",
					Header: []string{"system", "routers", "scheme", "sat_rate", "sat_throughput", "zero_load_latency"},
					Notes: []string{"UPP's recovery stays event-driven at scale; remote control polls every boundary it has held",
						"huge (8192 routers) is covered by the mesh8192_sharded benchmark workload and the CI scale-smoke job"}},
				curve: func(c Curve) []any { return []any{c.SaturationRate, c.SaturationThroughput, c.ZeroLoadLatency} },
			}},
		}),
		// The ablations quantify design choices the paper argues for
		// qualitatively, each on UPP with 1 VC.
		{ID: "ablation", InAll: true, figs: figs(figure{
			// Sec. V-D: static closest binding is minimal; any other binding
			// lengthens paths and costs latency and throughput.
			id:       "ablation_binding",
			template: with(ablation, 61),
			axes:     []axis{along("binding", func(s *RunSpec, b string) { s.UPP.Binding = b }, "", "random", "farthest", "single_boundary")},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{cmp.Or(s.UPP.Binding, "static_closest")} },
			tables: []figTable{{
				Table: Table{ID: "ablation_binding", Title: "Egress boundary binding policies under UPP (Sec. V-D design argument)",
					Header: []string{"policy", "low_load_latency", "sat_throughput", "upward_at_sat"},
					Notes:  []string{"static closest binding should dominate: lowest latency and highest (or tied) throughput"}},
				curve: upwardCurve,
			}},
		}, figure{
			// Sec. IV-B's full path diversity: UPP over minimal-adaptive
			// odd-even local routing against XY.
			id:       "ablation_adaptive",
			template: with(ablation, 83),
			axes:     []axis{patternAxis(traffic.Patterns()...), along("adaptive", func(s *RunSpec, a bool) { s.Adaptive = a }, false, true)},
			rates:    rates,
			key: func(s RunSpec) []any {
				return []any{s.Pattern.Name(), map[bool]string{false: "xy", true: "odd_even"}[s.Adaptive]}
			},
			tables: []figTable{{
				Table: Table{ID: "ablation_adaptive", Title: "UPP with XY vs minimal-adaptive odd-even local routing",
					Header: []string{"pattern", "local_routing", "low_load_latency", "sat_throughput", "upward_at_sat"},
					Notes: []string{"UPP recovers correctly under adaptive routing (popup paths chase the packet's own VC chain)",
						"at 1 VC, odd-even's restricted turn set costs saturation throughput vs XY on these patterns — the classic DOR-vs-odd-even result; the point of the ablation is correctness under adaptivity, not a win"}},
				curve: upwardCurve,
			}},
		}, figure{
			id:       "ablation_depth",
			template: with(ablation, 67),
			axes:     []axis{along("depth", func(s *RunSpec, d int) { s.BufferDepth = d }, 2, 4, 8)},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{s.BufferDepth} },
			tables: []figTable{{
				Table: Table{ID: "ablation_depth", Title: "Per-VC buffer depth under UPP", Header: []string{"depth", "low_load_latency", "sat_throughput"},
					Notes: []string{"deeper buffers raise saturation throughput with diminishing returns"}},
				curve: func(c Curve) []any { return []any{c.ZeroLoadLatency, c.SaturationThroughput} },
			}},
		}, figure{
			// Sec. V-B5 prescribes data-packet-size + 1 cycles between the
			// protocol signals of one interposer router.
			id:       "ablation_gap",
			template: with(ablation, 71),
			axes:     []axis{along("signal_gap", func(s *RunSpec, g int) { s.UPP.SignalGap = g }, 1, 6, 12)},
			rates:    rates,
			key:      func(s RunSpec) []any { return []any{s.UPP.SignalGap} },
			tables: []figTable{{
				Table: Table{ID: "ablation_gap", Title: "UPP protocol-signal serialization gap",
					Header: []string{"gap_cycles", "sat_throughput", "upward_at_sat", "signals_at_sat"},
					Notes:  []string{"recovery traffic is tiny, so the gap barely moves throughput — matching the paper's bandwidth-waste analysis"}},
				curve: func(c Curve) []any { return []any{c.SaturationThroughput, atSat(c).Upward, atSat(c).Signals} },
			}},
		})},
	}
}

// latencyFigure is Fig. 7 on a system and a set of patterns: the curves,
// the saturation/latency summary against the two baselines, and the
// curves as terminal charts.
func latencyFigure(id string, sys topology.SystemConfig, patterns ...traffic.Pattern) figure {
	return figure{
		id:       id,
		template: RunSpec{Topo: sys, Seed: 11},
		axes:     []axis{vcsAxis, patternAxis(patterns...), schemeAxis},
		rates:    DefaultRates(),
		key:      func(s RunSpec) []any { return []any{s.Pattern.Name(), s.Scheme, s.VCsPerVNet} },
		tables: []figTable{{
			Table: Table{ID: id, Title: "Latency vs injection rate",
				Header: []string{"pattern", "scheme", "vcs", "rate", "latency", "net_lat", "queue_lat", "throughput", "saturated"}},
			point: func(p Point) []any { return []any{p.Rate, p.TotalLat, p.NetLat, p.QueueLat, p.Throughput, p.Saturated} },
		}},
		reduce: func(cs []SweepCurve) ([]Table, error) {
			summary := Table{ID: id + "_summary", Title: "Saturation throughput and latency summary",
				Header: []string{"pattern", "vcs", "scheme", "sat_throughput", "vs_composable", "low_load_latency", "lat_vs_composable", "lat_vs_remote_control"},
				Notes: []string{"paper: UPP improves saturation throughput by 18%~72% over composable routing",
					"paper: UPP reduces latency by 4.5%~6.6% vs composable and 5.7%~8.2% vs remote control"}}
			charts := Table{ID: id + "_charts", Title: "Latency curves (terminal rendering of the figure)", Header: []string{"chart"}}
			// The scheme axis is innermost, so each run of its values is
			// one plot: composable first, remote control second.
			n := len(ComparedSchemes())
			for i := 0; i+n <= len(cs); i += n {
				plot, s := cs[i:i+n], cs[i].Spec
				comp, rc := plot[0].Curve, plot[1].Curve
				var drawn []Curve
				for _, c := range plot {
					summary.AddRowf(s.Pattern.Name(), s.VCsPerVNet, c.Spec.Scheme, c.SaturationThroughput,
						fmtPct(ratioPct(c.SaturationThroughput, comp.SaturationThroughput)), c.ZeroLoadLatency,
						fmtPct(latencyReductionPct(c.Curve, comp)), fmtPct(latencyReductionPct(c.Curve, rc)))
					c.Label = fmt.Sprintf("%s-%dVC-%s", c.Spec.Scheme, s.VCsPerVNet, s.Pattern.Name())
					drawn = append(drawn, c.Curve)
				}
				chart := AsciiChart(fmt.Sprintf("%s, %d VC(s)", s.Pattern.Name(), s.VCsPerVNet), drawn, "CRU")
				for _, line := range strings.Split(strings.TrimRight(chart, "\n"), "\n") {
					charts.AddRow(line)
				}
				charts.AddRow("")
			}
			return []Table{summary, charts}, nil
		},
	}
}

// fig10Tables normalizes each curve's low-load latency and saturation
// throughput to composable routing with 1 VC and 4 boundary routers.
func fig10Tables(cs []SweepCurve) ([]Table, error) {
	t := Table{ID: "fig10", Title: "Sensitivity to boundary routers per chiplet",
		Header: []string{"boundaries", "scheme", "vcs", "latency", "norm_latency", "sat_throughput", "norm_throughput"},
		Notes: []string{"normalized to composable routing, 1 VC, 4 boundary routers (the paper's baseline bar)",
			"paper: more boundary routers raise throughput and cut latency for every scheme; UPP stays best"}}
	var base Curve
	for _, c := range cs {
		if s := c.Spec; s.Topo.BoundaryPerChiplet == 4 && s.VCsPerVNet == 1 && s.Scheme == SchemeComposable {
			base = c.Curve
		}
	}
	for _, c := range cs {
		s := c.Spec
		t.AddRowf(s.Topo.BoundaryPerChiplet, s.Scheme, s.VCsPerVNet, c.ZeroLoadLatency, c.ZeroLoadLatency/base.ZeroLoadLatency,
			c.SaturationThroughput, c.SaturationThroughput/base.SaturationThroughput)
	}
	return []Table{t}, nil
}

func ratioPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// latencyReductionPct averages the latency reduction of c versus base over
// the rates where both are unsaturated.
func latencyReductionPct(c, base Curve) float64 {
	sum, n := 0.0, 0
	for i, pt := range c.Points {
		if pt.Saturated || i >= len(base.Points) || base.Points[i].Saturated {
			continue
		}
		if base.Points[i].TotalLat > 0 {
			sum += 100 * (1 - pt.TotalLat/base.Points[i].TotalLat)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func fmtPct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// ScaleSystem pairs a label with a scale-out topology configuration. The
// three presets are shared by the `figures -exp scale` entry, uppsim's
// -scale flag, the root BenchmarkStep and the CI scale-smoke job, so every scale
// artifact talks about the same systems.
type ScaleSystem struct {
	Label  string
	Config topology.ScaleConfig
}

func (s ScaleSystem) String() string { return s.Label }

// ScaleSystems returns the benchmark ladder: small (flat 16x16 interposer,
// 512 routers), large (2x2 tiles, 2048 routers), huge (4x4 tiles, 8192
// routers).
func ScaleSystems() []ScaleSystem {
	return []ScaleSystem{
		{"small", topology.ScaleSmallConfig()},
		{"large", topology.ScaleLargeConfig()},
		{"huge", topology.ScaleHugeConfig()},
	}
}

// scaleLabel names the ScaleSystems preset cfg is.
func scaleLabel(cfg topology.ScaleConfig) string {
	for _, sys := range ScaleSystems() {
		if sys.Config == cfg {
			return sys.Label
		}
	}
	return "custom"
}

// scaleRates is the offered-load grid of the scale saturation sweep. The
// scale systems saturate far earlier than the 60-node baseline (uniform
// random traffic is limited by the interposer mesh bisection, which grows
// with the perimeter while injection grows with the area), so the grid is
// dense below 0.02; the sweep's stop-past-saturation rule truncates the
// tail per system.
func scaleRates() []float64 {
	return []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.02, 0.03, 0.04, 0.06}
}
