package network_test

import (
	"bytes"
	"testing"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// poolRun drives one fixed workload on a pooled network or on the
// unpooled reference and returns the full flit-level trace plus the final
// statistics.
func poolRun(t *testing.T, scheme string, unpooled bool, rate float64, cycles int, seed uint64) (string, network.Stats) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	var (
		sch network.Scheme
		err error
	)
	switch scheme {
	case "upp":
		sch = core.New(core.DefaultConfig())
	case "remote_control":
		sch = remotectl.New()
	case "composable":
		sch, err = composable.BuildTables(topo)
	case "none":
		sch = network.None{}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	build := network.New
	if unpooled {
		build = network.NewUnpooled
	}
	n, err := build(topo, network.DefaultConfig(), sch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n.SetTracer(network.WriteTracer(&buf, 0))
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, rate, seed)
	g.Run(cycles)
	return buf.String(), n.Stats
}

// TestPoolTraceEquality: packet recycling must be behaviorally invisible
// — the flit-level event trace and every statistic must be bit-identical
// to the unpooled reference, for every scheme. The UPP run uses an
// overload rate so the full popup protocol (detection, signals, circuit
// drain, release) executes over recycled packets; remote control's
// injection holds keep packets queued at the NI while others are recycled
// around them, and composable routing steers every packet through its own
// route tables.
func TestPoolTraceEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cases := []struct {
		scheme string
		rate   float64
		cycles int
	}{
		{"none", 0.05, 6000},
		{"remote_control", 0.05, 6000},
		{"composable", 0.05, 6000},
		{"upp", 0.12, 10000}, // past the knee: popups fire
	}
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			pooledTrace, pooledStats := poolRun(t, tc.scheme, false, tc.rate, tc.cycles, 42)
			plainTrace, plainStats := poolRun(t, tc.scheme, true, tc.rate, tc.cycles, 42)
			if pooledStats != plainStats {
				t.Errorf("stats diverge:\npooled:   %+v\nunpooled: %+v", pooledStats, plainStats)
			}
			if tc.scheme == "upp" && pooledStats.UpwardPackets == 0 {
				t.Error("UPP case never detected an upward packet; raise the rate so the popup path is exercised")
			}
			if tc.scheme == "remote_control" && pooledStats.InjectionHolds == 0 {
				t.Error("remote control never held an injection; raise the rate so packets queue behind a hold")
			}
			if pooledTrace != plainTrace {
				i := 0
				for i < len(pooledTrace) && i < len(plainTrace) && pooledTrace[i] == plainTrace[i] {
					i++
				}
				lo := i - 200
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("flit traces diverge at byte %d:\npooled:   ...%.300s\nunpooled: ...%.300s",
					i, pooledTrace[lo:], plainTrace[lo:])
			}
		})
	}
}
