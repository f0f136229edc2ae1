package coherence

import (
	"testing"

	"uppnoc/internal/message"

	"uppnoc/internal/composable"
	upp "uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// runWorkload executes a scaled benchmark under UPP and returns the
// system for white-box inspection.
func runWorkload(t *testing.T, name string, scale float64, vcs int) (*System, int64) {
	t.Helper()
	w, err := BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(scale)
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Router.VCsPerVNet = vcs
	n := network.MustNew(topo, cfg, upp.New(upp.DefaultConfig()))
	s, err := New(n, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := s.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return s, int64(cycles)
}

// TestCoherenceInvariantAfterRun: after quiescing, the directory's view
// must exactly match the caches — the single-writer/multi-reader MESI
// invariant over every block either side remembers.
func TestCoherenceInvariantAfterRun(t *testing.T) {
	s, _ := runWorkload(t, "barnes", 0.1, 1)

	// Collect each core's view per block.
	type holder struct {
		node topology.NodeID
		st   lineState
	}
	holders := map[uint64][]holder{}
	for _, c := range s.cores {
		for _, set := range c.l1.sets {
			for _, l := range set {
				if l.state != invalid {
					holders[l.addr] = append(holders[l.addr], holder{c.node, l.state})
				}
			}
		}
	}
	for addr, hs := range holders {
		owners := 0
		for _, h := range hs {
			if h.st == modified || h.st == exclusive {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("block %x has %d M/E owners", addr, owners)
		}
		if owners == 1 && len(hs) > 1 {
			t.Fatalf("block %x has an owner plus %d other copies", addr, len(hs)-1)
		}
	}
	// Directory agreement.
	for _, dn := range s.dirNodes {
		d := s.dirs[dn]
		for addr, e := range d.blocks {
			switch e.state {
			case dirTransient:
				t.Fatalf("block %x still transient after quiesce", addr)
			case dirModified:
				hs := holders[addr]
				if len(hs) != 1 || hs[0].node != e.owner {
					t.Fatalf("block %x: directory says owner %d, caches say %v", addr, e.owner, hs)
				}
			case dirShared:
				for _, h := range holders[addr] {
					if h.st == modified || h.st == exclusive {
						t.Fatalf("block %x: dir Shared but core %d holds %d", addr, h.node, h.st)
					}
					if !e.sharers[h.node] {
						t.Fatalf("block %x: core %d holds a copy the directory does not track", addr, h.node)
					}
				}
			case dirInvalid:
				if len(holders[addr]) != 0 {
					t.Fatalf("block %x: dir Invalid but cached at %v", addr, holders[addr])
				}
			}
			if len(e.pendReq) != 0 {
				t.Fatalf("block %x has %d queued requests after quiesce", addr, len(e.pendReq))
			}
		}
	}
}

// TestAllCoresComplete: every core finishes its quota exactly.
func TestAllCoresComplete(t *testing.T) {
	s, _ := runWorkload(t, "fluidanimate", 0.08, 1)
	for _, c := range s.cores {
		if c.completed != s.Work.AccessesPerCore {
			t.Fatalf("core %d completed %d of %d", c.index, c.completed, s.Work.AccessesPerCore)
		}
		if len(c.outQ) != 0 || c.mshr.valid {
			t.Fatalf("core %d left residual state", c.index)
		}
	}
	if err := s.Net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeDeterminism: identical seeds give identical runtimes.
func TestRuntimeDeterminism(t *testing.T) {
	_, a := runWorkload(t, "water_nsquared", 0.05, 1)
	_, b := runWorkload(t, "water_nsquared", 0.05, 1)
	if a != b {
		t.Fatalf("runtimes differ: %d vs %d", a, b)
	}
}

// TestMoreVCsNotSlower: adding VCs must not hurt a network-bound workload.
func TestMoreVCsNotSlower(t *testing.T) {
	_, r1 := runWorkload(t, "fft", 0.06, 1)
	_, r4 := runWorkload(t, "fft", 0.06, 4)
	if float64(r4) > float64(r1)*1.10 {
		t.Fatalf("4 VCs slower than 1 VC: %d vs %d", r4, r1)
	}
}

// TestVNetClassMapping: the protocol's classes ride the VNets Table II
// assigns (requests 0, forwards 1, responses 2) — checked via the packet
// constructor.
func TestVNetClassMapping(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	w, _ := BenchmarkByName("blackscholes")
	s, err := New(n, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		class  message.Class
		vnet   int8
		isData bool
	}{
		{message.ClassGetS, 0, false},
		{message.ClassGetM, 0, false},
		{message.ClassPutM, 0, true},
		{message.ClassFwdGetS, 1, false},
		{message.ClassFwdGetM, 1, false},
		{message.ClassInv, 1, false},
		{message.ClassData, 2, true},
		{message.ClassDataAck, 2, false},
	}
	for _, c := range cases {
		p := s.newPacket(topo.Cores()[0], topo.Interposer[0], c.class, 0x99)
		if int8(p.VNet) != c.vnet {
			t.Fatalf("class %v on vnet %d, want %d", c.class, p.VNet, c.vnet)
		}
		if (p.Size == 5) != c.isData {
			t.Fatalf("class %v size %d", c.class, p.Size)
		}
	}
}

// TestCoherenceOnHeterogeneousSystem: the MESI substrate must run on
// mixed-size chiplet systems too (directories stay on the interposer).
func TestCoherenceOnHeterogeneousSystem(t *testing.T) {
	topo, err := topology.BuildHetero(topology.HeteroExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := network.MustNew(topo, network.DefaultConfig(), upp.New(upp.DefaultConfig()))
	w, err := BenchmarkByName("bodytrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(n, w.Scale(0.05), 3)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := s.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("hetero runtime %d cycles, %d requests", cycles, s.Requests)
}

// TestSchemeRuntimeOrdering: composable's restricted routing must cost
// runtime on a network-bound workload relative to UPP.
func TestSchemeRuntimeOrdering(t *testing.T) {
	run := func(mk func(*topology.Topology) network.Scheme) int64 {
		topo := topology.MustBuild(topology.BaselineConfig())
		n := network.MustNew(topo, network.DefaultConfig(), mk(topo))
		w, err := BenchmarkByName("fft")
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(n, w.Scale(0.08), 3)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := s.Run(20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return int64(cycles)
	}
	uppRT := run(func(*topology.Topology) network.Scheme { return upp.New(upp.DefaultConfig()) })
	compRT := run(func(tp *topology.Topology) network.Scheme {
		s, err := composable.BuildTables(tp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	t.Logf("fft runtime: upp %d, composable %d", uppRT, compRT)
	if compRT <= uppRT {
		t.Fatalf("composable (%d) should be slower than UPP (%d) on a network-bound workload", compRT, uppRT)
	}
}

// TestL2AndDRAMLatency: the first access to a block pays DRAM latency at
// the directory; re-access after eviction from L1 (but resident in the L2
// bank) pays only L2-hit latency. Verified via the hit/miss counters.
func TestL2AndDRAMLatency(t *testing.T) {
	s, _ := runWorkload(t, "water_nsquared", 0.1, 1)
	if s.L2Misses == 0 {
		t.Fatal("no DRAM fills recorded")
	}
	if s.L2Hits == 0 {
		t.Fatal("no L2-bank hits recorded — re-references should hit the shared L2")
	}
	t.Logf("L2 hits %d, DRAM fills %d", s.L2Hits, s.L2Misses)
}
