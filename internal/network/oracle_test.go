package network_test

import (
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestOracleStaysOracle: the oracle wakes every router at the top of each
// cycle and retires nothing — AwakeRouterIDs lists every router after
// every Step — so it stays independent of the retirement it is compared
// against. The same run under the active kernel does retire routers.
func TestOracleStaysOracle(t *testing.T) {
	for _, kernel := range []string{network.KernelNaive, network.KernelActive} {
		t.Run(kernel, func(t *testing.T) {
			topo := topology.MustBuild(topology.BaselineConfig())
			cfg := network.DefaultConfig()
			cfg.Kernel = kernel
			n := network.MustNew(topo, cfg, core.New(core.DefaultConfig()))
			g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.05, 7)
			partial := 0
			for i := 0; i < 3000; i++ {
				g.Tick(n.Cycle())
				n.Step()
				if len(n.AwakeRouterIDs()) != topo.NumNodes() {
					partial++
				}
			}
			switch {
			case kernel == network.KernelNaive && partial != 0:
				t.Fatalf("oracle: %d cycles with fewer than %d awake routers; want 0", partial, topo.NumNodes())
			case kernel == network.KernelActive && partial == 0:
				t.Fatal("active kernel retired no router: the run does not exercise retirement")
			}
		})
	}
}
