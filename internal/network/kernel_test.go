package network

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// TestAwakeMergeMatchesSort: sortAwake on a sorted prefix plus an unsorted
// tail of distinct IDs yields exactly what sorting the whole list does —
// on random splits, an empty tail, an empty prefix, a tail wholly above
// the prefix (the no-merge exit) and one wholly below it.
func TestAwakeMergeMatchesSort(t *testing.T) {
	g := sim.NewRNG(3)
	check := func(name string, prefix, tail []int32) {
		t.Helper()
		list := append(slices.Clone(prefix), tail...)
		want := slices.Clone(list)
		slices.Sort(want)
		sortAwake(list, len(prefix), make([]int32, 0, len(list)))
		if !slices.Equal(list, want) {
			t.Fatalf("%s: prefix %v + tail %v merged to %v, want %v", name, prefix, tail, list, want)
		}
	}
	for trial := 0; trial < 500; trial++ {
		ids := make([]int32, g.Intn(40))
		for i, v := range g.Perm(4 * (len(ids) + 1))[:len(ids)] {
			ids[i] = int32(v)
		}
		split := g.Intn(len(ids) + 1)
		slices.Sort(ids[:split])
		check("random", ids[:split], ids[split:])
	}
	check("empty tail", []int32{1, 4, 9}, nil)
	check("empty prefix", nil, []int32{9, 1, 4})
	check("both empty", nil, nil)
	check("tail above", []int32{1, 2, 3}, []int32{7, 5, 6})
	check("tail below", []int32{7, 8, 9}, []int32{2, 0, 1})
}

// TestValidateWheelHorizon: link latency + pipeline depth combinations the
// event wheel cannot cover must be rejected at config time, not by
// ScheduleCall's runtime panic mid-simulation.
func TestValidateWheelHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Router.LinkLatency = wheelSize - router.PipelineDepth - 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("latency just inside the horizon rejected: %v", err)
	}
	cfg.Router.LinkLatency = wheelSize - router.PipelineDepth
	err := cfg.Validate()
	if err == nil {
		t.Fatalf("latency %d reaching the %d-cycle wheel horizon accepted", cfg.Router.LinkLatency, wheelSize)
	}
	if !strings.Contains(err.Error(), "wheel") {
		t.Fatalf("horizon error does not name the wheel: %v", err)
	}
}

// TestValidateKernelName: only the three kernel names (or empty) pass.
func TestValidateKernelName(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []string{"", KernelActive, KernelNaive, KernelParallel} {
		cfg.Kernel = k
		if err := cfg.Validate(); err != nil {
			t.Fatalf("kernel %q rejected: %v", k, err)
		}
	}
	cfg.Kernel = "turbo"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown kernel name accepted")
	}
}

// TestValidateShards: a negative worker count is a config error; zero means
// GOMAXPROCS and any positive count is legal (clamped later).
func TestValidateShards(t *testing.T) {
	cfg := DefaultConfig()
	for _, s := range []int{0, 1, 7, 1024} {
		cfg.Shards = s
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Shards=%d rejected: %v", s, err)
		}
	}
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// TestNewRejectsBadConfig: New reports a bad Config through Validate, in
// Validate's words — in particular without blaming an environment
// variable for a value that came from the Config.
func TestNewRejectsBadConfig(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"kernel", func(c *Config) { c.Kernel = "turbo" }, `unknown kernel "turbo"`},
		{"router arch", func(c *Config) { c.RouterArch = "banyan" }, `unknown arch "banyan"`},
		{"shards", func(c *Config) { c.Kernel = KernelParallel; c.Shards = -1 }, "Shards must be >= 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.edit(&cfg)
			_, err := New(topo, cfg, None{})
			if err == nil {
				t.Fatal("bad config accepted")
			}
			if verr := cfg.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("New says %q, Validate says %v", err, verr)
			}
			if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "UPP_") {
				t.Fatalf("error %q: want it to contain %q and name no environment variable", err, tc.want)
			}
		})
	}
}

// TestKernelResolution: Config.Kernel is New's only input — empty means
// the active-set kernel, and UPP_KERNEL (resolved by internal/experiments
// for the binaries) is not consulted at this layer, malformed or not.
func TestKernelResolution(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, tc := range []struct{ name, env, cfg, want string }{
		{"default", "", "", KernelActive},
		{"env", KernelNaive, "", KernelActive},
		{"config beats env", KernelNaive, KernelParallel, KernelParallel},
		{"bad env", "turbo", "", KernelActive},
		{"parallel env", KernelParallel, "", KernelActive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("UPP_KERNEL", tc.env)
			cfg := DefaultConfig()
			cfg.Kernel = tc.cfg
			n, err := New(topo, cfg, None{})
			if err != nil {
				t.Fatal(err)
			}
			if n.Kernel() != tc.want {
				t.Fatalf("kernel %q, want %q", n.Kernel(), tc.want)
			}
		})
	}
}

// TestShardResolution: Config.Shards is the parallel kernel's only input
// — 0 means GOMAXPROCS, the value is clamped to the block count, and
// UPP_SHARDS is not consulted at this layer.
func TestShardResolution(t *testing.T) {
	topo := topology.MustBuildScale(topology.ScaleSmallConfig())
	blocks := topo.NumNodes() >> blockShift // 512 routers: 8 blocks
	auto := min(runtime.GOMAXPROCS(0), blocks)
	for _, tc := range []struct {
		name, env, kernel string
		cfg, want         int
	}{
		{"config wins", "2", KernelParallel, 3, 3},
		{"env", "5", KernelParallel, 0, auto},
		{"clamped to block count", "", KernelParallel, 10_000, blocks},
		{"bad env", "zero", KernelParallel, 0, auto},
		{"other kernels ignore shards", "", KernelActive, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("UPP_SHARDS", tc.env)
			cfg := DefaultConfig()
			cfg.Kernel = tc.kernel
			cfg.Shards = tc.cfg
			n, err := New(topo, cfg, None{})
			if err != nil {
				t.Fatal(err)
			}
			if n.Shards() != tc.want {
				t.Fatalf("got %d shards, want %d", n.Shards(), tc.want)
			}
		})
	}
}

// TestCreditDoesNotWakeRouter: a credit gives an idle router nothing to
// do, so delivering one leaves the active set empty and the following
// cycles skippable.
func TestCreditDoesNotWakeRouter(t *testing.T) {
	for _, kernel := range []string{KernelActive, KernelParallel} {
		cfg := DefaultConfig()
		cfg.Kernel = kernel
		n := MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, None{})
		// A zero-delta free credit, as ForceReleaseVC sends.
		n.Routers[3].Out[1].Busy[0] = true
		n.DeliverCredit(3, 1, 0, 0, true, n.Cycle()+1)
		n.Run(2)
		if n.Routers[3].Out[1].Busy[0] {
			t.Fatalf("%s: credit not delivered", kernel)
		}
		if len(n.routerList) != 0 || n.routerAwake[3] || !n.canSkipIdleCycles() {
			t.Fatalf("%s: credit woke a router: awake list %v, skippable %v", kernel, n.routerList, n.canSkipIdleCycles())
		}
	}
}
