package traffic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestBitPatternsArePermutations: the deterministic patterns must be
// bijections over power-of-two core counts, or some cores would be doubly
// loaded.
func TestBitPatternsArePermutations(t *testing.T) {
	for _, pat := range []traffic.Pattern{traffic.BitComplement{}, traffic.BitRotation{}, traffic.Transpose{}} {
		for _, n := range []int{16, 64, 128} {
			seen := make([]bool, n)
			for s := 0; s < n; s++ {
				d := pat.Dest(s, n, nil)
				if d < 0 || d >= n {
					t.Fatalf("%s: dest %d out of range for src %d", pat.Name(), d, s)
				}
				if seen[d] {
					t.Fatalf("%s: dest %d hit twice (n=%d)", pat.Name(), d, n)
				}
				seen[d] = true
			}
		}
	}
}

func TestBitComplementInvolution(t *testing.T) {
	err := quick.Check(func(s16 uint16) bool {
		n := 64
		s := int(s16) % n
		p := traffic.BitComplement{}
		return p.Dest(p.Dest(s, n, nil), n, nil) == s
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformRandomInRange(t *testing.T) {
	rng := sim.NewRNG(3)
	p := traffic.UniformRandom{}
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[p.Dest(0, 16, rng)]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("dest %d drawn %d times of 16000 (expected ~1000)", d, c)
		}
	}
}

func TestPatternByName(t *testing.T) {
	for _, p := range traffic.Patterns() {
		got, err := traffic.PatternByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Fatalf("lookup %q failed", p.Name())
		}
	}
	if _, err := traffic.PatternByName("nope"); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

// TestOfferedLoadAccuracy: the generator's injected flit rate must track
// the requested rate.
func TestOfferedLoadAccuracy(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	const rate = 0.02
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 5)
	const cycles = 20000
	g.Run(cycles)
	offered := float64(n.Stats.InjectedFlits+pendingFlits(n)) / float64(cycles) / float64(len(topo.Cores()))
	if math.Abs(offered-rate) > rate*0.15 {
		t.Fatalf("offered %.4f, want ~%.4f", offered, rate)
	}
}

func pendingFlits(n *network.Network) uint64 {
	// Flits of packets still queued count toward offered load.
	var inQ uint64
	for _, ni := range n.NIs {
		inQ += uint64(ni.Pending())
	}
	return inQ // approximation: >=1 flit each; only used with tolerance
}

// TestControlDataMix: roughly half the packets are 1-flit control packets.
func TestControlDataMix(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.02, 5)
	g.Run(20000)
	pkts := n.Stats.InjectedPackets
	flits := n.Stats.InjectedFlits
	if pkts < 100 {
		t.Fatalf("too few packets: %d", pkts)
	}
	avg := float64(flits) / float64(pkts)
	// 50/50 mix of 1- and 5-flit packets has mean 3.
	if avg < 2.6 || avg > 3.4 {
		t.Fatalf("average packet size %.2f, want ~3", avg)
	}
}

// TestDeterministicWorkload: same seed, same injections.
func TestDeterministicWorkload(t *testing.T) {
	run := func() (uint64, uint64) {
		topo := topology.MustBuild(topology.BaselineConfig())
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, traffic.Transpose{}, 0.02, 77)
		g.Run(5000)
		return n.Stats.BornPackets, n.Stats.EjectedFlits
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", b1, e1, b2, e2)
	}
}

// TestPatternDestinationsTable pins concrete src->dst images of every
// deterministic pattern (the definitions from Table II) so a silent
// bit-twiddling regression fails with the exact broken mapping.
func TestPatternDestinationsTable(t *testing.T) {
	cases := []struct {
		pattern traffic.Pattern
		n       int
		src     []int
		want    []int
	}{
		{traffic.BitComplement{}, 16, []int{0, 1, 5, 15}, []int{15, 14, 10, 0}},
		{traffic.BitComplement{}, 64, []int{0, 21, 63}, []int{63, 42, 0}},
		{traffic.BitRotation{}, 16, []int{1, 8, 9}, []int{2, 1, 3}},
		{traffic.BitRotation{}, 64, []int{1, 32, 33}, []int{2, 1, 3}},
		{traffic.Transpose{}, 16, []int{1, 2, 4, 8}, []int{4, 8, 1, 2}},
		{traffic.Transpose{}, 64, []int{1, 8, 9}, []int{8, 1, 9}},
	}
	for _, tc := range cases {
		for i, src := range tc.src {
			if got := tc.pattern.Dest(src, tc.n, nil); got != tc.want[i] {
				t.Errorf("%s(n=%d): Dest(%d) = %d, want %d", tc.pattern.Name(), tc.n, src, got, tc.want[i])
			}
		}
	}
}

// TestPatternDestRangeAllPatterns: every pattern (including the random
// one) stays in range over every source, for power-of-two populations.
func TestPatternDestRangeAllPatterns(t *testing.T) {
	rng := sim.NewRNG(17)
	for _, pat := range traffic.Patterns() {
		for _, n := range []int{2, 16, 64, 128} {
			for s := 0; s < n; s++ {
				for rep := 0; rep < 4; rep++ {
					if d := pat.Dest(s, n, rng); d < 0 || d >= n {
						t.Fatalf("%s: Dest(%d, %d) = %d out of range", pat.Name(), s, n, d)
					}
				}
			}
		}
	}
}

// TestUniformRandomDistributionPerSource: the destination distribution
// must be uniform from every source, not just source 0 (a per-source RNG
// split bug would pass the single-source check).
func TestUniformRandomDistributionPerSource(t *testing.T) {
	p := traffic.UniformRandom{}
	const n, draws = 16, 8000
	for _, src := range []int{0, 7, 15} {
		rng := sim.NewRNG(uint64(100 + src))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[p.Dest(src, n, rng)]++
		}
		for d, c := range counts {
			if c < draws/n/2 || c > draws/n*2 {
				t.Fatalf("src %d: dest %d drawn %d times of %d (expected ~%d)", src, d, c, draws, draws/n)
			}
		}
	}
}

// selfPattern always targets the source — the generator must drop every
// injection.
type selfPattern struct{}

func (selfPattern) Name() string                    { return "self" }
func (selfPattern) Dest(src, n int, _ *sim.RNG) int { return src }

// TestSelfSendExclusion: self-traffic never enters the network, for the
// always-self stub and for the deterministic patterns' fixed points
// (transpose maps 0->0, bit rotation 0->0).
func TestSelfSendExclusion(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, selfPattern{}, 0.5, 5)
	g.Run(2000)
	if n.Stats.BornPackets != 0 {
		t.Fatalf("self-pattern injected %d packets", n.Stats.BornPackets)
	}
	for _, pat := range traffic.Patterns() {
		for _, nn := range []int{16, 64} {
			for s := 0; s < nn; s++ {
				rng := sim.NewRNG(uint64(s))
				if d := pat.Dest(s, nn, rng); d == s {
					// A fixed point is legal — the generator skips it; this
					// loop just documents that Dest may return src and the
					// contract is "skip", not "crash" (verified above).
					_ = d
				}
			}
		}
	}
}

// TestSeedDeterminismAllPatterns: for every pattern, the same seed must
// reproduce the identical run and (for the randomized pattern) a
// different seed must diverge.
func TestSeedDeterminismAllPatterns(t *testing.T) {
	run := func(pat traffic.Pattern, seed uint64) (uint64, uint64, uint64) {
		topo := topology.MustBuild(topology.BaselineConfig())
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, pat, 0.02, seed)
		g.Run(4000)
		return n.Stats.BornPackets, n.Stats.InjectedFlits, n.Stats.EjectedFlits
	}
	for _, pat := range traffic.Patterns() {
		t.Run(pat.Name(), func(t *testing.T) {
			b1, i1, e1 := run(pat, 42)
			b2, i2, e2 := run(pat, 42)
			if b1 != b2 || i1 != i2 || e1 != e2 {
				t.Fatalf("same seed diverges: (%d,%d,%d) vs (%d,%d,%d)", b1, i1, e1, b2, i2, e2)
			}
			if b1 == 0 {
				t.Fatal("run injected nothing — determinism check is vacuous")
			}
		})
	}
	// Different seeds must actually change the random pattern's run.
	b1, i1, _ := run(traffic.UniformRandom{}, 42)
	b2, i2, _ := run(traffic.UniformRandom{}, 43)
	if b1 == b2 && i1 == i2 {
		t.Fatal("seeds 42 and 43 produced identical runs — the seed is ignored")
	}
}

// TestBitPatternsOnNonPowerOfTwo: heterogeneous systems have arbitrary
// core counts; bit patterns must fold out-of-range images instead of
// crashing the generator.
func TestBitPatternsOnNonPowerOfTwo(t *testing.T) {
	topo, err := topology.BuildHetero(topology.HeteroExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(topo.Cores()); n&(n-1) == 0 {
		t.Fatalf("example hetero system has %d cores — expected non-power-of-two", n)
	}
	for _, pat := range []traffic.Pattern{traffic.BitComplement{}, traffic.BitRotation{}, traffic.Transpose{}} {
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, pat, 0.02, 9)
		g.Run(3000) // would panic without destination folding
		if n.Stats.BornPackets == 0 {
			t.Fatalf("%s generated nothing", pat.Name())
		}
	}
}

// TestBirthsPinned digests every packet the generator births over 2 000
// cycles, in birth order: its cycle, source, destination, size and VNet.
// Births are open loop, so the network is never stepped; no packet returns
// to the pool, and the preallocated spares come out of it in birth order
// (Pool.Get takes from the tail). A change to the per-core streams, the
// Bernoulli decision or the draw order shows up as a new digest.
func TestBirthsPinned(t *testing.T) {
	cases := []struct {
		name string
		topo *topology.Topology
		rate float64
		born int
		want string
	}{
		{"baseline/0.02", topology.MustBuild(topology.BaselineConfig()), 0.02, 850, "94ceca6d4852d94d9769b2e46d2deacb31f02cf6c60ed02b6165708aef93985a"},
		{"baseline/0.2", topology.MustBuild(topology.BaselineConfig()), 0.2, 8525, "e9b5c06daeed8a293933d901181297260263a02b7502fa90391778716085a45c"},
		{"small/0.01", topology.MustBuildScale(topology.ScaleSmallConfig()), 0.01, 1716, "75910f3210ae77e1e9bc5e0932e82ecccacb71d36ce9acf235b20861c5eb1613"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := network.MustNew(tc.topo, network.DefaultConfig(), network.None{})
			pool := n.PacketPool()
			pool.Preallocate(20000)
			var spares []*message.Packet
			pool.ForEachFree(func(p *message.Packet) { spares = append(spares, p) })
			g := traffic.NewGenerator(n, traffic.UniformRandom{}, tc.rate, 11)
			for c := range 2000 {
				g.Tick(sim.Cycle(c))
			}
			born := int(n.Stats.BornPackets)
			if born != tc.born || born > len(spares) {
				t.Fatalf("%d births for %d spares, want %d", born, len(spares), tc.born)
			}
			h := sha256.New()
			for k := range born {
				p := spares[len(spares)-1-k]
				fmt.Fprintf(h, "%d %d %d %d %d\n", p.BirthCycle, p.Src, p.Dst, p.Size, p.VNet)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("births digest to %s, want %s", got, tc.want)
			}
		})
	}
}
