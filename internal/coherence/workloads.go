package coherence

import (
	"fmt"
	"strconv"
	"strings"

	"uppnoc/internal/sim"
)

// Workload is a per-benchmark synthetic memory profile. The paper runs
// PARSEC and SPLASH-2 under gem5 full-system simulation; we reproduce the
// NoC-visible behaviour of each benchmark with a profile of access
// intensity, write fraction, sharing and working-set size. The parameters
// are calibrated from the benchmarks' published cache/sharing
// characterizations: network-intensive benchmarks (canneal, fft, radix)
// have large working sets and high sharing; compute-bound ones
// (blackscholes, swaptions) barely touch the NoC — mirroring the spread of
// runtime gains in the paper's Fig. 8.
type Workload struct {
	Name string
	// AccessProb is the per-cycle probability a core issues a memory
	// access when not blocked on a miss.
	AccessProb float64
	// WriteFrac is the store fraction of accesses.
	WriteFrac float64
	// SharedFrac is the fraction of accesses targeting the globally
	// shared region.
	SharedFrac float64
	// PrivateBlocks and SharedBlocks size the two address regions (cache
	// blocks); the private region's ratio to the 512-block L1 sets the
	// miss rate.
	PrivateBlocks uint64
	SharedBlocks  uint64
	// AccessesPerCore is the per-core access quota; runtime is the cycle
	// count until every core completes it.
	AccessesPerCore int
}

// address draws one block address for a core.
func (w Workload) address(core int, rng *sim.RNG) uint64 {
	if rng.Bernoulli(w.SharedFrac) {
		return (2 << 40) | uint64(rng.Intn(int(w.SharedBlocks)))
	}
	return (1 << 40) | uint64(core)<<20 | uint64(rng.Intn(int(w.PrivateBlocks)))
}

// Scale returns a copy with the access quota scaled by f (benchmarks use
// scaled-down runs).
func (w Workload) Scale(f float64) Workload {
	w.AccessesPerCore = int(float64(w.AccessesPerCore) * f)
	if w.AccessesPerCore < 50 {
		w.AccessesPerCore = 50
	}
	return w
}

// Benchmarks returns the 18 PARSEC + SPLASH-2 profiles of Figs. 8/12/15,
// in the paper's plotting order.
func Benchmarks() []Workload {
	return []Workload{
		// PARSEC
		{Name: "blackscholes", AccessProb: 0.10, WriteFrac: 0.15, SharedFrac: 0.02, PrivateBlocks: 320, SharedBlocks: 256, AccessesPerCore: 3000},
		{Name: "bodytrack", AccessProb: 0.20, WriteFrac: 0.20, SharedFrac: 0.10, PrivateBlocks: 640, SharedBlocks: 512, AccessesPerCore: 3000},
		{Name: "canneal", AccessProb: 0.35, WriteFrac: 0.25, SharedFrac: 0.35, PrivateBlocks: 4096, SharedBlocks: 2048, AccessesPerCore: 2500},
		{Name: "dedup", AccessProb: 0.25, WriteFrac: 0.30, SharedFrac: 0.15, PrivateBlocks: 1024, SharedBlocks: 512, AccessesPerCore: 3000},
		{Name: "facesim", AccessProb: 0.18, WriteFrac: 0.25, SharedFrac: 0.08, PrivateBlocks: 768, SharedBlocks: 384, AccessesPerCore: 3000},
		{Name: "fluidanimate", AccessProb: 0.25, WriteFrac: 0.30, SharedFrac: 0.18, PrivateBlocks: 1280, SharedBlocks: 640, AccessesPerCore: 2800},
		{Name: "swaptions", AccessProb: 0.12, WriteFrac: 0.15, SharedFrac: 0.03, PrivateBlocks: 384, SharedBlocks: 256, AccessesPerCore: 3200},
		{Name: "vips", AccessProb: 0.18, WriteFrac: 0.22, SharedFrac: 0.08, PrivateBlocks: 704, SharedBlocks: 384, AccessesPerCore: 3000},
		// SPLASH-2
		{Name: "barnes", AccessProb: 0.22, WriteFrac: 0.25, SharedFrac: 0.25, PrivateBlocks: 896, SharedBlocks: 768, AccessesPerCore: 2800},
		{Name: "cholesky", AccessProb: 0.20, WriteFrac: 0.22, SharedFrac: 0.12, PrivateBlocks: 832, SharedBlocks: 512, AccessesPerCore: 3000},
		{Name: "fft", AccessProb: 0.35, WriteFrac: 0.30, SharedFrac: 0.30, PrivateBlocks: 4096, SharedBlocks: 1536, AccessesPerCore: 2500},
		{Name: "lu_cb", AccessProb: 0.22, WriteFrac: 0.25, SharedFrac: 0.15, PrivateBlocks: 768, SharedBlocks: 512, AccessesPerCore: 3000},
		{Name: "lu_ncb", AccessProb: 0.25, WriteFrac: 0.25, SharedFrac: 0.20, PrivateBlocks: 1024, SharedBlocks: 640, AccessesPerCore: 2800},
		{Name: "radiosity", AccessProb: 0.18, WriteFrac: 0.22, SharedFrac: 0.15, PrivateBlocks: 768, SharedBlocks: 512, AccessesPerCore: 3000},
		{Name: "radix", AccessProb: 0.38, WriteFrac: 0.35, SharedFrac: 0.30, PrivateBlocks: 4608, SharedBlocks: 1792, AccessesPerCore: 2500},
		{Name: "raytrace", AccessProb: 0.16, WriteFrac: 0.15, SharedFrac: 0.20, PrivateBlocks: 704, SharedBlocks: 640, AccessesPerCore: 3000},
		{Name: "water_nsquared", AccessProb: 0.15, WriteFrac: 0.20, SharedFrac: 0.10, PrivateBlocks: 576, SharedBlocks: 384, AccessesPerCore: 3000},
		{Name: "water_spatial", AccessProb: 0.15, WriteFrac: 0.20, SharedFrac: 0.12, PrivateBlocks: 640, SharedBlocks: 384, AccessesPerCore: 3000},
	}
}

// BenchmarkByName finds a profile.
func BenchmarkByName(name string) (Workload, error) {
	for _, w := range Benchmarks() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("coherence: unknown benchmark %q", name)
}

// specPrefix opens a coherence workload spec.
const specPrefix = "coherence:"

// IsSpec reports whether s names a coherence workload (ParseSpec's
// syntax) rather than a collective.
func IsSpec(s string) bool { return strings.HasPrefix(s, specPrefix) }

// Spec is the workload spec of the named profile at an access-quota
// scale, as ParseSpec reads it.
func Spec(benchmark string, scale float64) string {
	return fmt.Sprintf("%s%s,scale=%g", specPrefix, benchmark, scale)
}

// ParseSpec parses a coherence workload spec, the form a full-system run
// takes as RunSpec.Workload or `uppsim -workload`:
//
//	coherence:benchmark[,scale=F]
//
// benchmark is one of Benchmarks' profiles; scale (0 < F <= 100, default
// 1) multiplies its access quota as Workload.Scale does.
func ParseSpec(s string) (Workload, error) {
	rest, ok := strings.CutPrefix(s, specPrefix)
	if !ok {
		return Workload{}, fmt.Errorf("coherence: spec %q does not start with %q", s, specPrefix)
	}
	name, opt, scaled := strings.Cut(rest, ",")
	w, err := BenchmarkByName(name)
	if err != nil || !scaled {
		return w, err
	}
	val, ok := strings.CutPrefix(opt, "scale=")
	f, err := strconv.ParseFloat(val, 64)
	if !ok || err != nil || !(f > 0 && f <= 100) {
		return Workload{}, fmt.Errorf("coherence: option %q in %q: want scale=F with 0 < F <= 100", opt, s)
	}
	return w.Scale(f), nil
}
