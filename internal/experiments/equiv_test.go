package experiments

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestMain runs every test of the package with the result cache off, so
// a test simulates what it checks instead of reading a developer's
// UPP_CACHE_DIR. A test of the cache sets its own t.TempDir().
func TestMain(m *testing.M) {
	os.Unsetenv("UPP_CACHE_DIR")
	m.Run()
}

// This file is the package's one equivalence runner: a RunSpec gives the
// same answer under every kernel, shard count and checkpoint split. A
// variant is one way to execute a spec: a kernel and a shard count (zero:
// network.New's defaults) and, when restore is set, a checkpoint written
// at the case's cycle under them and resumed under read and readShards.
// A named variant reports its specs as subtest name (see equivCase.sub).
type variant struct {
	name, kernel, read string
	shards, readShards int
	restore            bool
}

var active, naive, parallel = variant{}, variant{kernel: network.KernelNaive}, variant{kernel: network.KernelParallel}

// resumedUnder is v writing the checkpoint and r reading it, named name.
func (v variant) resumedUnder(r variant, name string) variant {
	v.name, v.restore, v.read, v.readShards = name, true, r.kernel, r.shards
	return v
}

// digest is what a run reproduces under every variant: its Point and,
// for a rate-driven spec, its UPWR checkpoint bytes at the case's cycle
// and at its last cycle; err is the run's failure.
type digest struct {
	pt        Point
	mid, last bytes.Buffer
	err       error
}

var errCheckpointed = errors.New("checkpoint written")

// run executes spec under v with the cache off, writing the checkpoint at
// cycle at (none at 0); a restore variant stops there and resumes it.
func (v variant) run(spec RunSpec, at int64) (d digest) {
	spec.Kernel, spec.Shards = v.kernel, v.shards
	if spec.Workload != "" {
		d.pt, d.err = runMeasured(spec, nil, nil)
		return d
	}
	n, g, err := BuildRun(spec)
	_, canonical, _ := canonicalSpec(spec)
	write := func(b *bytes.Buffer) error { return writeCheckpointTo(b, canonical, n, g) }
	var checkpoint func() error
	if at > 0 {
		checkpoint = func() error { return write(&d.mid) }
	}
	if err == nil && v.restore {
		if _, err = finishRun(spec, n, g, sim.Cycle(at), func() error { return cmp.Or(write(&d.mid), errCheckpointed) }, nil); errors.Is(err, errCheckpointed) {
			n, g, spec, err = ReadCheckpoint(d.mid.Bytes(), v.read, v.readShards)
		} else if err == nil {
			err = fmt.Errorf("the run never reached cycle %d", at)
		}
		if _, c, _ := canonicalSpec(spec); err == nil && (!bytes.Equal(c, canonical) || n.Kernel() != cmp.Or(v.read, network.KernelActive)) {
			err = fmt.Errorf("resumed as %s under kernel %s", c, n.Kernel())
		}
		at, checkpoint = 0, nil
	}
	if err == nil {
		d.pt, err = finishRun(spec, n, g, sim.Cycle(at), checkpoint, nil)
	}
	if err == nil {
		err = write(&d.last)
	}
	d.err = err
	return d
}

// diff names the first Point field or checkpoint byte where d departs
// from ref, or returns "".
func (d digest) diff(ref digest) string {
	a, b := reflect.ValueOf(ref.pt), reflect.ValueOf(d.pt)
	for i := range a.NumField() {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			return fmt.Sprintf("Point.%s is %v, the default variant's %v", a.Type().Field(i).Name, b.Field(i), a.Field(i))
		}
	}
	if i := firstDiff(ref.mid.Bytes(), d.mid.Bytes()); i >= 0 {
		return fmt.Sprintf("the checkpoint differs from the first writer's at byte %d of %d", i, ref.mid.Len())
	}
	if i := firstDiff(ref.last.Bytes(), d.last.Bytes()); i >= 0 {
		return fmt.Sprintf("the last-cycle checkpoint differs at byte %d of %d", i, ref.last.Len())
	}
	return ""
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return -1
	}
	return i
}

// specKey is a spec's content address, which no variant changes.
func specKey(s RunSpec) string {
	_, c, _ := canonicalSpec(s)
	return string(c)
}

// equivCase is a list of specs and the variants each must match the
// default variant (the active kernel, no checkpoint) under. refs holds
// default-variant digests a render already made (record), by spec key. A
// named variant's comparisons run as subtest v.name, each spec's as a
// subtest sub(spec) of that when sub is set.
type equivCase struct {
	specs    []RunSpec
	at       int64 // the cycle every other variant checkpoints at; 0 for none
	variants []variant
	refs     map[string]digest
	sub      func(RunSpec) string
}

// record returns pool options at jobs sweep workers whose runs execute
// under the default variant and add their digest to c.refs: a render
// makes the refs. It leaves c.specs alone: which points past a sweep's
// stop start before the stop is known depends on timing, so the caller
// lists the specs the render kept.
func (c *equivCase) record(jobs int) PoolOptions {
	var mu sync.Mutex
	c.refs = map[string]digest{}
	return PoolOptions{Jobs: jobs, run: func(spec RunSpec, _ func() bool) (Point, error) {
		d := active.run(spec, 0)
		mu.Lock()
		defer mu.Unlock()
		c.refs[specKey(spec)] = d
		return d.pt, d.err
	}}
}

// equivalent runs every (spec, variant) pair once, two at a time through
// the pool, and fails for each one whose digest departs from the default
// variant's (a checkpoint: from the first writer's), naming the spec, the
// variant and what differs. It returns the digests by spec, the default
// variant's first.
func (c equivCase) equivalent(t *testing.T) [][]digest {
	t.Helper()
	vs := append([]variant{active}, c.variants...)
	got := make([][]digest, len(c.specs))
	var pairs [][2]int
	for i, spec := range c.specs {
		got[i] = make([]digest, len(vs))
		ref, ok := c.refs[specKey(spec)]
		got[i][0] = ref
		for k := range vs {
			if k > 0 || !ok {
				pairs = append(pairs, [2]int{i, k})
			}
		}
	}
	dispatch(len(pairs), PoolOptions{Jobs: 2}, func(j int, _ func() bool) {
		i, k := pairs[j][0], pairs[j][1]
		at := c.at
		if k == 0 { // the default variant writes no checkpoint
			at = 0
		}
		got[i][k] = vs[k].run(c.specs[i], at)
	}, nil)
	in := func(t *testing.T, name string, f func(*testing.T)) { // f in subtest name, or in t
		if name == "" {
			f(t)
		} else {
			t.Run(name, f)
		}
	}
	sub := func(RunSpec) string { return "" }
	if c.sub != nil {
		sub = c.sub
	}
	for k, v := range vs {
		in(t, v.name, func(t *testing.T) {
			for i, s := range c.specs {
				in(t, sub(s), func(t *testing.T) {
					name := fmt.Sprintf("%s/%s/vcs=%d/%s%T@%g/%s", s.Scheme, cmp.Or(s.RouterArch, "iq"), s.VCsPerVNet, s.Workload, s.Pattern, s.Rate, s.FaultPlan)
					ref := got[i][0]
					ref.mid = got[i][1].mid
					if got[i][k].err != nil {
						t.Errorf("%s under %+v: %v", name, v, got[i][k].err)
					} else if d := got[i][k].diff(ref); k > 0 && d != "" {
						t.Errorf("%s under %+v: %s", name, v, d)
					}
				})
			}
		})
	}
	return got
}

// TestKernelCSVGolden renders Fig. 7 once through the pool at microDur
// (subtest fig7 checks the tables it makes). The uniform-random points it
// kept, the ones its saturation-gap summary reads, then run under the
// naive and parallel kernels to the rendered digests.
func TestKernelCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	c := equivCase{variants: []variant{naive, parallel}}
	fig := sweepFigure(t, "fig7")
	cs := fig.curves(microDur)
	if !t.Run("fig7", func(t *testing.T) {
		ts, err := figureTables(fig, cs, c.record(2))
		requireTables(t, ts, err, "fig7", "fig7_summary", "fig7_charts")
	}) {
		return
	}
	for _, curve := range cs {
		for _, pt := range curve.Points {
			if spec := curve.Spec; spec.Pattern.Name() == "uniform_random" {
				spec.Rate = pt.Rate
				c.specs = append(c.specs, spec)
			}
		}
	}
	c.equivalent(t)
}

// TestScaleShardEquivalence: on the 512-router scale-out system (eight
// 64-router blocks), the parallel kernel at two and four workers, and a
// checkpoint written at two workers and resumed at four, reproduce the
// active kernel's digest.
func TestScaleShardEquivalence(t *testing.T) {
	sc := topology.ScaleSmallConfig()
	p2, p4 := variant{kernel: network.KernelParallel, shards: 2}, variant{kernel: network.KernelParallel, shards: 4}
	equivCase{specs: []RunSpec{{Scale: &sc, Scheme: SchemeUPP, Pattern: traffic.UniformRandom{}, Rate: 0.05, Seed: 3, Dur: microDur}},
		at: 700, variants: []variant{p2, p4, p2.resumedUnder(p4, "")}}.equivalent(t)
}

// FuzzKernelEquivalence generates a baseline spec at microDur (scheme,
// arch, pattern, rate in thousandths, seed) and runs it under the parallel
// kernel at the generated worker count, and written under the oracle at
// the generated cycle and resumed under it. The corpus is the restore
// matrix's schemes and archs.
func FuzzKernelEquivalence(f *testing.F) {
	schemes, archs, patterns := append(ComparedSchemes(), SchemeNone), []string{"iq", "oq", "voq"}, traffic.Patterns()
	for si := range ComparedSchemes() {
		for ai := range archs {
			f.Add(uint8(si), uint8(ai), uint8(0), uint16(160), uint64(11), uint8(4), uint16(700))
		}
	}
	f.Fuzz(func(t *testing.T, scheme, arch, pattern uint8, rate uint16, seed uint64, shards uint8, at uint16) {
		par := variant{kernel: network.KernelParallel, shards: int(shards%4) + 1}
		equivCase{specs: []RunSpec{{Topo: topology.BaselineConfig(), Scheme: schemes[int(scheme)%len(schemes)],
			RouterArch: archs[int(arch)%len(archs)], VCsPerVNet: 1, Pattern: patterns[int(pattern)%len(patterns)],
			Rate: float64(rate%300+1) / 1000, Seed: seed, Dur: microDur}},
			at: int64(at)%int64(microDur.Warmup+microDur.Measure) + 1, variants: []variant{par, naive.resumedUnder(par, "")}}.equivalent(t)
	})
}
