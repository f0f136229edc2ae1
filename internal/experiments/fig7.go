package experiments

import (
	"fmt"
	"strings"
	"sync"

	"uppnoc/internal/composable"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// composableCache reuses the design-time restriction search across runs of
// the same topology configuration (the tables are immutable and the
// structure is identical for equal configs).
var (
	composableMu    sync.Mutex
	composableCache = map[topology.SystemConfig]*composable.Scheme{}
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
	s, err := composable.NewScheme(topo)
	if err != nil {
		return nil, err
	}
	composableCache[cfg] = s
	return s, nil
}

// Fig7 reproduces the baseline-system latency/throughput comparison:
// four synthetic patterns x {composable, remote control, UPP} x {1,4} VCs.
// It returns the full curves plus a summary of saturation-throughput
// improvement and latency reduction, the paper's headline numbers
// (+18~72% throughput, -4.5~8.2% latency).
func Fig7(dur Durations, opts PoolOptions) ([]Table, error) {
	return latencyFigure("fig7", topology.BaselineConfig(), traffic.Patterns(), dur, opts)
}

// Fig9 reproduces the 128-core system comparison (4x8 interposer, eight
// chiplets) under uniform random traffic.
func Fig9(dur Durations, opts PoolOptions) ([]Table, error) {
	return latencyFigure("fig9", topology.LargeConfig(), []traffic.Pattern{traffic.UniformRandom{}}, dur, opts)
}

func latencyFigure(id string, sysCfg topology.SystemConfig, patterns []traffic.Pattern, dur Durations, opts PoolOptions) ([]Table, error) {
	curves := Table{
		ID:     id,
		Title:  "Latency vs injection rate",
		Header: []string{"pattern", "scheme", "vcs", "rate", "latency", "net_lat", "queue_lat", "throughput", "saturated"},
	}
	summary := Table{
		ID:     id + "_summary",
		Title:  "Saturation throughput and latency summary",
		Header: []string{"pattern", "vcs", "scheme", "sat_throughput", "vs_composable", "low_load_latency", "lat_vs_composable", "lat_vs_remote_control"},
		Notes: []string{
			"paper: UPP improves saturation throughput by 18%~72% over composable routing",
			"paper: UPP reduces latency by 4.5%~6.6% vs composable and 5.7%~8.2% vs remote control",
		},
	}
	type key struct {
		pattern string
		vcs     int
		scheme  SchemeName
	}
	results := map[key]Curve{}
	for _, vcs := range []int{1, 4} {
		for _, pat := range patterns {
			for _, sch := range ComparedSchemes() {
				spec := RunSpec{
					Topo:       sysCfg,
					Scheme:     sch,
					VCsPerVNet: vcs,
					Pattern:    pat,
					Seed:       11,
					Dur:        dur,
				}
				label := fmt.Sprintf("%s-%dVC-%s", sch, vcs, pat.Name())
				opts.Progress.log("%s: sweeping %s", id, label)
				c, err := SweepRatesWith(spec, DefaultRates(), label, opts)
				if err != nil {
					return nil, err
				}
				results[key{pat.Name(), vcs, sch}] = c
				for _, pt := range c.Points {
					curves.AddRowf(pat.Name(), string(sch), vcs, pt.Rate, pt.TotalLat, pt.NetLat, pt.QueueLat, pt.Throughput, pt.Saturated)
				}
			}
		}
	}
	charts := Table{
		ID:     id + "_charts",
		Title:  "Latency curves (terminal rendering of the figure)",
		Header: []string{"chart"},
	}
	for _, vcs := range []int{1, 4} {
		for _, pat := range patterns {
			var cs []Curve
			for _, sch := range ComparedSchemes() {
				cs = append(cs, results[key{pat.Name(), vcs, sch}])
			}
			chart := AsciiChart(fmt.Sprintf("%s, %d VC(s)", pat.Name(), vcs), cs, "CRU")
			for _, line := range strings.Split(strings.TrimRight(chart, "\n"), "\n") {
				charts.AddRow(line)
			}
			charts.AddRow("")
		}
	}
	for _, vcs := range []int{1, 4} {
		for _, pat := range patterns {
			comp := results[key{pat.Name(), vcs, SchemeComposable}]
			rc := results[key{pat.Name(), vcs, SchemeRemoteControl}]
			for _, sch := range ComparedSchemes() {
				c := results[key{pat.Name(), vcs, sch}]
				vsComp := ratioPct(c.SaturationThroughput, comp.SaturationThroughput)
				latVsComp := latencyReductionPct(c, comp)
				latVsRC := latencyReductionPct(c, rc)
				summary.AddRowf(pat.Name(), vcs, string(sch),
					c.SaturationThroughput, fmtPct(vsComp), c.ZeroLoadLatency, fmtPct(latVsComp), fmtPct(latVsRC))
			}
		}
	}
	return []Table{curves, summary, charts}, nil
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
