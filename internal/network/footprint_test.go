package network_test

import (
	"runtime"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// footprintCeiling bounds the bytes network.New allocates for the huge
// preset (8192 routers; UPP, iq, one VC per VNet): the figure measured when
// the VCs' ring slots moved into per-block pools, the per-port router views
// were deleted and the NIs stopped carving ejection lists up front, plus 5 %.
const footprintCeiling = 21_437_228

// TestNetworkFootprint holds the construction footprint of the largest
// preset under a committed ceiling, the memory counterpart of
// TestLayoutPins: per-VC storage or per-port views grown back into every
// router show up as megabytes here. It measures the bytes network.New
// allocates (TotalAlloc, so a collection mid-build cannot hide any) and is
// not parallel, so no other test's allocations land in the window.
func TestNetworkFootprint(t *testing.T) {
	topo, err := topology.BuildScale(topology.ScaleHugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := network.MustNew(topo, network.DefaultConfig(), core.New(core.DefaultConfig()))
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("network.New on %d routers allocated %d bytes (%.2f MB)", len(n.Routers), got, float64(got)/(1<<20))
	if got > footprintCeiling {
		t.Errorf("network.New on huge allocated %d bytes, ceiling %d", got, footprintCeiling)
	}
}
