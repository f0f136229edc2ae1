package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units, with direction and bound; bench_test.go keeps the two
// in step.
type metricDef struct{ Name, Unit string }

// endToEndMetrics are reported by every workload's untraced run. Names
// starting sim_ are simulated results and repeat exactly for a fixed seed;
// the others are host time or host memory.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
	{"sim_latency_cycles", "cycles"},
	{"sim_throughput", "flits/cyc/node"},
}

// perLayerMetrics are reported by every workload's traced run, named
// layer.metric after the module they measure. A workload that does not
// exercise a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	{"topology.build_s", "s"},
	{"composable.search_s", "s"},
	{"network.new_s", "s"},
	{"network.warmup_s", "s"},

	{"experiments.points_per_s", "1/s"},
	{"experiments.points_run", "count"},
	{"experiments.points_kept", "count"},
	{"experiments.speculation_waste_ratio", "ratio"},
	{"experiments.build_run_ms_p50", "ms"},
	{"experiments.point_s_p50", "s"},
	{"experiments.point_s_max", "s"},
	{"experiments.pool_efficiency", "ratio"},
	{"experiments.cache_cold_points_per_s", "1/s"},
	{"experiments.cache_hit_us_per_point", "us"},
	{"experiments.cache_warm_points_per_s", "1/s"},
	{"experiments.cache_hits", "count"},
	{"experiments.cache_misses", "count"},
	{"experiments.warm_hits", "count"},
	{"experiments.cache_bytes", "B"},

	{"traffic.tick_ns_per_cycle", "ns"},
	{"traffic.tick_share", "ratio"},
	{"traffic.packets_born", "count"},

	{"workload.tick_ns_per_cycle", "ns"},
	{"workload.messages_delivered", "count"},
	{"workload.ops_fired", "count"},
	{"workload.cycles_per_iter", "cycles"},

	{"network.step_ns_per_cycle", "ns"},
	{"network.step_self_ns_per_cycle", "ns"},
	{"network.step_ns_per_flit_hop", "ns"},
	{"network.step_ns_per_awake_router", "ns"},
	{"network.awake_routers_mean", "count"},
	{"network.buffered_flits_mean", "count"},
	{"network.inflight_packets_mean", "count"},
	{"network.windows", "count"},
	{"network.window_ns_per_cycle_p50", "ns"},
	{"network.window_ns_per_cycle_p95", "ns"},
	{"network.allocs_per_cycle", "1/cycle"},
	{"network.bytes_per_cycle", "B/cycle"},
	{"network.gc_cycles", "count"},
	{"network.heap_live_mb", "MB"},
	{"network.drain_cycles", "cycles"},
	{"network.shards", "count"},
	{"network.parallel_inline_ratio", "ratio"},
	{"network.parallel_speedup", "ratio"},

	{"router.flit_hops", "count"},
	{"router.buffer_writes", "count"},
	{"router.link_travs", "count"},
	{"router.up_flits", "count"},
	{"router.sa_requests", "count"},
	{"router.sa_grant_ratio", "ratio"},

	{"core.start_of_cycle_ns_per_cycle", "ns"},
	{"core.end_of_cycle_ns_per_cycle", "ns"},
	{"core.end_of_cycle_share", "ratio"},
	{"core.upward_packets", "count"},
	{"core.popups_started", "count"},
	{"core.popups_completed", "count"},
	{"core.popups_cancelled", "count"},
	{"core.popup_useful_ratio", "ratio"},
	{"core.signals_sent", "count"},

	{"snap.write_ms", "ms"},
	{"snap.restore_ms", "ms"},
	{"snap.bytes", "B"},

	{"trace.overhead_pct", "%"},
}

// metricDefs returns the table a run in the given mode reports.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// quantile returns the q-quantile (0..1) of vs by nearest rank on a
// sorted copy; 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: what the Go runtime obtained from the system is the
	// nearest figure.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
