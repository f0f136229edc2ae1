package experiments

import (
	"fmt"

	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/workload"
)

// WorkloadSpec describes one closed-loop collective run: the machine and
// the workload program (RunSpec.Workload) driven to completion on it.
// Unlike a rate-driven run there is no offered rate — the workload's
// dependency structure sets the load, and the figure of merit is
// completion time, not saturation throughput.
type WorkloadSpec struct {
	RunSpec
	// MaxCycles bounds the run; a workload still unfinished then is
	// reported as Completed=false (under a scheme without recovery a
	// closed loop can genuinely deadlock — that is a result, not an
	// error).
	MaxCycles int
	// Record captures every injected message into WorkloadPoint.Trace
	// (the trace record frontend).
	Record bool
}

// WorkloadPoint is the measured outcome of one collective run.
type WorkloadPoint struct {
	Workload    string
	Scheme      SchemeName
	Completed   bool
	FinishCycle sim.Cycle
	// Messages counts workload chunks delivered (all iterations).
	Messages uint64
	// Ops progress at the horizon (diagnostic for incomplete runs).
	OpsFired, OpsTotal int
	NetLat             float64
	QueueLat           float64
	TotalLat           float64
	Upward             uint64
	Popups             uint64
	Signals            uint64
	InjectionHolds     uint64
	// Trace is the recorded message trace; nil unless the spec asked for
	// one.
	Trace *workload.Trace `json:"-"`
}

// workloadEngine parses a workload spec, builds its program for n's cores
// and attaches the closed-loop engine that drives it.
func workloadEngine(n *network.Network, spec string) (*workload.Engine, workload.Spec, error) {
	ws, err := workload.ParseSpec(spec)
	if err != nil {
		return nil, ws, err
	}
	prog, err := ws.Build(len(n.Topo.Cores()))
	if err != nil {
		return nil, ws, err
	}
	eng, err := workload.NewEngine(n, prog)
	return eng, ws, err
}

// RunWorkload executes one collective run. Workload completion implies
// every injected message was consumed (Program.Validate proves the
// closed loop is closed), so a completed run needs no drain: the network
// is empty at FinishCycle.
func RunWorkload(spec WorkloadSpec) (WorkloadPoint, error) {
	sm, err := Assemble(spec.RunSpec)
	if err != nil {
		return WorkloadPoint{}, err
	}
	n := sm.Net
	eng, ws, err := workloadEngine(n, spec.Workload)
	if err != nil {
		return WorkloadPoint{}, err
	}
	eng.Iterations = ws.EngineIterations()
	var rec *workload.TraceRecorder
	if spec.Record {
		rec = workload.NewTraceRecorder(len(n.Topo.Cores()))
		eng.SetRecorder(rec)
	}
	maxCycles := spec.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 400000
	}
	Drive(n, eng, sim.Cycle(maxCycles), eng.Done)
	pt := WorkloadPoint{
		Workload:       spec.Workload,
		Scheme:         spec.Scheme,
		Completed:      eng.Done(),
		Messages:       eng.MessagesDelivered,
		NetLat:         n.AvgNetLatency(),
		QueueLat:       n.AvgQueueLatency(),
		TotalLat:       n.AvgTotalLatency(),
		Upward:         n.Stats.UpwardPackets,
		Popups:         n.Stats.PopupsCompleted,
		Signals:        n.Stats.SignalsSent,
		InjectionHolds: n.Stats.InjectionHolds,
	}
	if rec != nil {
		pt.Trace = rec.Trace()
	}
	pt.OpsFired, pt.OpsTotal = eng.Progress()
	if eng.Done() {
		pt.FinishCycle = eng.FinishCycle()
		if n.InFlight() != 0 {
			return pt, fmt.Errorf("collectives: %s finished with %d packets in flight — the closed loop did not close", spec.Workload, n.InFlight())
		}
	}
	return pt, nil
}

// RunWorkloads executes the specs across the worker pool, results in
// input order, bit-identical at any job count (each run is a fresh
// deterministic simulation).
func RunWorkloads(specs []WorkloadSpec, opts PoolOptions) ([]WorkloadPoint, error) {
	points := make([]WorkloadPoint, len(specs))
	errs := make([]error, len(specs))
	if err := forEachIndex(len(specs), opts, func(i int) {
		points[i], errs[i] = RunWorkload(specs[i])
	}); err != nil {
		return nil, err
	}
	var failed []*RunError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &RunError{Index: i, Err: err})
		}
	}
	if failed != nil {
		return points, &BatchError{Failed: failed, Total: len(specs)}
	}
	return points, nil
}

// CollectiveWorkloads returns the workload specs of the collectives
// table: every builder at its defaults, ring allreduce and all-to-all
// additionally at a larger chunk size (the two the acceptance comparison
// centers on).
func CollectiveWorkloads() []string {
	ws := workload.Names()
	return append(ws, "ring_allreduce:flits=10", "all_to_all:flits=10")
}

// Collectives runs the collective-communication comparison: every
// workload under the paper's three schemes, reporting completion time
// and the recovery/avoidance work each scheme performed. UPP's
// completion times track the unconstrained baseline while composable
// pays its path restrictions and remote control its injection holds on
// the bursty exchanges.
func Collectives(opts PoolOptions) ([]Table, error) {
	table := Table{
		ID:    "collectives",
		Title: "Collective workload completion: UPP vs remote control vs composable",
		Header: []string{"workload", "scheme", "completed", "finish_cycle", "messages",
			"avg_lat", "net_lat", "queue_lat", "upward", "popups", "signals", "inj_holds"},
		Notes: []string{
			"closed-loop dependency-driven traffic (DESIGN.md sec. 11): completion time is the figure of merit",
			"a workload that cannot finish within the horizon reports completed=false",
		},
	}
	var specs []WorkloadSpec
	for _, wl := range CollectiveWorkloads() {
		for _, sch := range ComparedSchemes() {
			specs = append(specs, WorkloadSpec{RunSpec: RunSpec{
				Topo:     topology.BaselineConfig(),
				Scheme:   sch,
				Workload: wl,
				Seed:     11,
			}})
		}
	}
	opts.Progress.log("collectives: %d runs (%d workloads x %d schemes)",
		len(specs), len(CollectiveWorkloads()), len(ComparedSchemes()))
	points, err := RunWorkloads(specs, opts)
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		table.AddRowf(pt.Workload, string(pt.Scheme), pt.Completed, int64(pt.FinishCycle), pt.Messages,
			pt.TotalLat, pt.NetLat, pt.QueueLat, pt.Upward, pt.Popups, pt.Signals, pt.InjectionHolds)
	}
	return []Table{table}, nil
}
