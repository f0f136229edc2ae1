package network

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// TestAwakeSet: random adds and removes keep the bitmap, its population
// count and its ascending walk equal to a map reference; a member added
// during a walk above the cursor is visited in the same pass, one added at
// or below it (the cursor's own ID, removed and re-added, included) in the
// next.
func TestAwakeSet(t *testing.T) {
	const nodes = 200 // four words, the last one partial
	g := sim.NewRNG(3)
	s := newAwakeSet(nodes)
	ref := map[topology.NodeID]bool{}
	walk := func() []topology.NodeID {
		var got []topology.NodeID
		for id := s.next(-1); id >= 0; id = s.next(id) {
			got = append(got, id)
		}
		return got
	}
	check := func(step int) {
		t.Helper()
		var want []topology.NodeID
		for id := range ref {
			want = append(want, id)
		}
		slices.Sort(want)
		if got := walk(); !slices.Equal(got, want) || s.count != len(want) {
			t.Fatalf("step %d: walk %v (count %d), want %v", step, got, s.count, want)
		}
		for id := topology.NodeID(0); id < nodes; id++ {
			if s.has(id) != ref[id] {
				t.Fatalf("step %d: has(%d) = %v, want %v", step, id, s.has(id), ref[id])
			}
		}
	}
	for step := 0; step < 2000; step++ {
		id := topology.NodeID(g.Intn(nodes))
		if g.Intn(3) == 0 {
			s.remove(id)
			delete(ref, id)
		} else {
			s.add(id)
			ref[id] = true
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(2000)

	s.clear()
	if got := walk(); len(got) != 0 || s.count != 0 {
		t.Fatalf("cleared set walks %v (count %d)", got, s.count)
	}
	// Wakes during a walk, within the cursor's word and across words.
	for _, id := range []topology.NodeID{5, 70, 130} {
		s.add(id)
	}
	var pass []topology.NodeID
	for id := s.next(-1); id >= 0; id = s.next(id) {
		pass = append(pass, id)
		if id == 70 {
			s.add(71)  // above, same word
			s.add(199) // above, a later word
			s.add(69)  // below, same word
			s.add(3)   // below, an earlier word
			s.remove(70)
			s.add(70) // the cursor itself
		}
	}
	if want := []topology.NodeID{5, 70, 71, 130, 199}; !slices.Equal(pass, want) {
		t.Fatalf("pass with mid-walk wakes visited %v, want %v", pass, want)
	}
	if got, want := walk(), []topology.NodeID{3, 5, 69, 70, 71, 130, 199}; !slices.Equal(got, want) {
		t.Fatalf("next pass visits %v, want %v", got, want)
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
// Validate's words, naming the value.
func TestNewRejectsBadConfig(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"kernel", func(c *Config) { c.Kernel = "turbo" }, `unknown kernel "turbo"`},
		{"router arch", func(c *Config) { c.RouterArch = "banyan" }, `unknown arch "banyan"`},
		{"shards", func(c *Config) { c.Kernel = KernelParallel; c.Shards = -1 }, "Shards is -1"},
		// One past what the int16 credit counters hold.
		{"buffer depth", func(c *Config) { c.Router.BufferDepth = 1 << 15 }, "BufferDepth must be <= 32767"},
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
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q: want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestKernelResolution: Config.Kernel picks the kernel, and empty means
// the active-set kernel.
func TestKernelResolution(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, tc := range []struct{ name, cfg, want string }{
		{"default", "", KernelActive},
		{"naive", KernelNaive, KernelNaive},
		{"parallel", KernelParallel, KernelParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
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

// TestShardResolution: Config.Shards is the parallel kernel's worker
// count — 0 means GOMAXPROCS and the value is clamped to the block count;
// the other kernels run one worker whatever it says.
func TestShardResolution(t *testing.T) {
	topo := topology.MustBuildScale(topology.ScaleSmallConfig())
	blocks := topo.NumNodes() >> blockShift // 512 routers: 8 blocks
	auto := min(runtime.GOMAXPROCS(0), blocks)
	for _, tc := range []struct {
		name, kernel string
		cfg, want    int
	}{
		{"config wins", KernelParallel, 3, 3},
		{"default", KernelParallel, 0, auto},
		{"clamped to block count", KernelParallel, 10_000, blocks},
		{"other kernels ignore shards", KernelActive, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
// do, so delivering one leaves the active set empty.
func TestCreditDoesNotWakeRouter(t *testing.T) {
	for _, kernel := range []string{KernelActive, KernelParallel} {
		cfg := DefaultConfig()
		cfg.Kernel = kernel
		n := MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, None{})
		// A zero-delta free credit, as ForceReleaseVC sends.
		n.Routers[3].OutBusy(1)[0] = true
		n.DeliverCredit(3, 1, 0, 0, true, n.Cycle()+1)
		n.Run(2)
		if n.Routers[3].OutBusy(1)[0] {
			t.Fatalf("%s: credit not delivered", kernel)
		}
		if n.routers.count != 0 || n.routers.has(3) {
			t.Fatalf("%s: credit woke a router: %d awake", kernel, n.routers.count)
		}
	}
}
