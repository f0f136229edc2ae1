package experiments

import (
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// RouterArchs returns the compared router microarchitectures in display
// order: the paper's input-queued pipeline, the output-queued variant,
// and the virtual-output-queued variant with ejection-first allocation.
func RouterArchs() []string {
	return []string{router.ArchIQ, router.ArchOQ, router.ArchVOQ}
}

// routerCompareWorkloads is the workload subset of the router comparison:
// the two collectives the acceptance comparison centers on plus the
// all-reduce at its default chunk size — enough to exercise sustained
// all-to-all pressure and the vertical links without the full table's
// runtime.
func routerCompareWorkloads() []string {
	return []string{"ring_allreduce", "ring_allreduce:flits=10", "all_to_all:flits=10"}
}

// RouterCompare runs the router-microarchitecture comparison: every
// compared scheme on every router variant (iq, oq, voq) at equal total
// buffer budget per port (router.BufferBudget; oq moves half of each
// input VC's depth into output staging, voq re-disciplines allocation
// over the same buffers). Completion time is the figure of merit; the
// budget column pins the equal-resource claim in the emitted table.
func RouterCompare(opts PoolOptions) ([]Table, error) {
	cfg := network.DefaultConfig()
	budget := router.BufferBudget(cfg.Router)
	table := Table{
		ID:    "router_compare",
		Title: "Router microarchitecture comparison at equal buffer budget",
		Header: []string{"workload", "scheme", "router", "budget", "completed",
			"finish_cycle", "messages", "avg_lat", "upward", "popups", "inj_holds"},
		Notes: []string{
			"iq/oq/voq at identical per-port flit-slot budgets (DESIGN.md sec. 12)",
			"closed-loop collectives: completion time is the figure of merit",
		},
	}
	var specs []WorkloadSpec
	for _, wl := range routerCompareWorkloads() {
		for _, sch := range ComparedSchemes() {
			for _, arch := range RouterArchs() {
				specs = append(specs, WorkloadSpec{RunSpec: RunSpec{
					Topo:       topology.BaselineConfig(),
					Scheme:     sch,
					Workload:   wl,
					Seed:       11,
					RouterArch: arch,
				}})
			}
		}
	}
	opts.Progress.log("router_compare: %d runs (%d workloads x %d schemes x %d router archs)",
		len(specs), len(routerCompareWorkloads()), len(ComparedSchemes()), len(RouterArchs()))
	points, err := RunWorkloads(specs, opts)
	if err != nil {
		return nil, err
	}
	for i, pt := range points {
		table.AddRowf(pt.Workload, string(pt.Scheme), specs[i].RouterArch, budget, pt.Completed,
			int64(pt.FinishCycle), pt.Messages, pt.TotalLat, pt.Upward, pt.Popups, pt.InjectionHolds)
	}
	return []Table{table}, nil
}
