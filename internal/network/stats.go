package network

import (
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
)

// Stats aggregates network-level counters. Latency sums cover packets born
// at or after MeasureStart (set by ResetMeasurement after warmup), matching
// the paper's warmup-then-measure methodology.
type Stats struct {
	MeasureStart sim.Cycle

	BornPackets     uint64
	InjectedPackets uint64
	InjectedFlits   uint64
	EjectedFlits    uint64
	EjectedPackets  uint64
	ConsumedPackets uint64

	MeasuredPackets uint64
	NetLatencySum   uint64
	QueueLatencySum uint64

	// measureFlits0 snapshots EjectedFlits at measurement start for the
	// throughput window.
	measureFlits0 uint64

	// Scheme counters (UPP fills these; baselines leave them zero).
	UpwardPackets   uint64 // packets selected for popup (Fig. 12/13)
	PopupsStarted   uint64 // popups that received an ack and drained
	PopupsCancelled uint64 // false positives resolved by UPP_stop
	PopupsCompleted uint64 // popup packets fully ejected
	SignalsSent     uint64 // UPP_req/ack/stop hop transmissions
	// ReservationsGranted counts successful ejection-entry reservations.
	ReservationsGranted uint64
	// InjectionHolds counts cycles packets spent gated by injection
	// control (remote control).
	InjectionHolds uint64

	// Robustness counters (runtime fault injection and UPP signal retry;
	// all stay zero in fault-free runs).
	SignalRetries  uint64 // req/stop re-sends after a signal timeout
	PopupsAborted  uint64 // popups force-retired (retry exhaustion or a lost post-stop ack)
	SignalsDropped uint64 // protocol-signal transmissions lost to fault injection
	SignalsDelayed uint64 // protocol-signal transmissions delayed by fault injection
	LateSignals    uint64 // arrivals for already-retired popups, discarded
	LinkFlaps      uint64 // transient link-outage windows applied
	EjectionStalls uint64 // NI consume passes suppressed by an injected PE stall

	// Dynamic-reconfiguration counters (internal/reconfig; all stay zero
	// without a reconfiguration engine attached).
	Reconfigs           uint64 // routing-epoch transitions begun
	ReconfigsDrainless  uint64 // transitions run without an injection hold (CDG-compatible)
	ReconfigsEpoch      uint64 // transitions run with the injection fence (CDG-incompatible)
	RouteMigrations     uint64 // old-epoch packets migrated onto new tables at route computation
	HeadsMigrated       uint64 // waiting wormhole heads unrouted off fenced ports
	LinksKilled         uint64 // persistent link failures applied
	LinksRevived        uint64 // persistent links healed (hot-add)
	ReconfigHeldStreams uint64 // stream starts deferred by the injection fence
}

// ResetMeasurement starts a fresh measurement window at the given cycle.
func (n *Network) ResetMeasurement() {
	s := &n.Stats
	s.MeasureStart = n.cycle
	s.MeasuredPackets = 0
	s.NetLatencySum = 0
	s.QueueLatencySum = 0
	s.measureFlits0 = s.EjectedFlits
	n.latHist.Reset()
}

// AvgNetLatency returns the mean network latency (inject to eject) of
// measured packets, in cycles.
func (n *Network) AvgNetLatency() float64 {
	if n.Stats.MeasuredPackets == 0 {
		return 0
	}
	return float64(n.Stats.NetLatencySum) / float64(n.Stats.MeasuredPackets)
}

// AvgQueueLatency returns the mean injection-queue latency of measured
// packets, in cycles.
func (n *Network) AvgQueueLatency() float64 {
	if n.Stats.MeasuredPackets == 0 {
		return 0
	}
	return float64(n.Stats.QueueLatencySum) / float64(n.Stats.MeasuredPackets)
}

// AvgTotalLatency is queueing plus network latency.
func (n *Network) AvgTotalLatency() float64 { return n.AvgNetLatency() + n.AvgQueueLatency() }

// Throughput returns ejected flits per cycle per core over the
// measurement window.
func (n *Network) Throughput() float64 {
	window := n.cycle - n.Stats.MeasureStart
	if window <= 0 {
		return 0
	}
	flits := n.Stats.EjectedFlits - n.Stats.measureFlits0
	return float64(flits) / float64(window) / float64(len(n.Topo.Cores()))
}

// RouterStats sums the per-router datapath counters (energy model input).
func (n *Network) RouterStats() router.Stats {
	var s router.Stats
	for _, r := range n.Routers {
		rs := r.Stats
		s.BufferWrites += rs.BufferWrites
		s.BufferReads += rs.BufferReads
		s.CrossbarTravs += rs.CrossbarTravs
		s.LinkTravs += rs.LinkTravs
		s.SARequests += rs.SARequests
		s.SAGrants += rs.SAGrants
		s.UpFlits += rs.UpFlits
	}
	return s
}
