package coherence_test

import (
	"testing"

	"uppnoc/internal/coherence"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

func cohSystem(t *testing.T, scheme network.Scheme, w coherence.Workload, vcs int) *coherence.System {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Router.VCsPerVNet = vcs
	n, err := network.New(topo, cfg, scheme)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	s, err := coherence.New(n, w, 99)
	if err != nil {
		t.Fatalf("coherence: %v", err)
	}
	return s
}

func TestSmallWorkloadCompletes(t *testing.T) {
	w, err := coherence.BenchmarkByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.1)
	s := cohSystem(t, core.New(core.DefaultConfig()), w, 1)
	cycles, err := s.Run(3_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("runtime=%d cycles, reqs=%d fwds=%d resps=%d hits=%d misses=%d wb=%d",
		cycles, s.Requests, s.Forwards, s.Responses, s.L1Hits, s.L1Misses, s.Writebacks)
	if s.Requests == 0 || s.Responses == 0 {
		t.Fatal("no protocol traffic generated")
	}
	if s.L1Hits == 0 {
		t.Fatal("no cache hits — working set model broken")
	}
}

func TestShareHeavyWorkloadAllSchemes(t *testing.T) {
	w, err := coherence.BenchmarkByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.06)
	schemes := map[string]func(*topology.Topology) network.Scheme{
		"upp": func(*topology.Topology) network.Scheme { return core.New(core.DefaultConfig()) },
	}
	for name, mk := range schemes {
		s := cohSystem(t, mk(nil), w, 1)
		cycles, err := s.Run(5_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Forwards == 0 {
			t.Fatalf("%s: sharing workload produced no forwards", name)
		}
		t.Logf("%s: runtime=%d fwds=%d", name, cycles, s.Forwards)
	}
}
