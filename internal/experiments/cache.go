package experiments

// This file is the content-addressed run cache (DESIGN.md §14). A RunSpec
// whose inputs are fully canonicalizable — a named scheme, one of the
// registered traffic patterns, no workload, no parsed plan or
// reconfiguration mode, no tracer — maps to a canonical JSON
// envelope; the SHA-256 of those bytes addresses two on-disk artifacts
// under UPP_CACHE_DIR:
//
//	results/<hash>.json  the finished Point (exact-match verified
//	                     against the stored spec, not just the hash)
//	warm/<hash>.upws     a warm-start checkpoint: the full simulation
//	                     state after the warmup phase, keyed on the
//	                     envelope with Measure zeroed so runs that differ
//	                     only in measurement length share warmups
//
// The cache key deliberately excludes the execution strategy — cycle
// kernel, shard count and packet pooling — because all of them are
// bit-identical by construction (enforced by the kernel/pool equivalence
// tests), so a Point computed under any of them is valid for all. It
// deliberately includes the resolved router architecture (UPP_ROUTER
// applies when the spec leaves RouterArch empty) because that does change
// results. Entries are written atomically (temp file + rename), so
// concurrent sweep workers and concurrent processes sharing a cache
// directory never observe torn files; a corrupt or stale entry is treated
// as a miss, never an error.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// CacheDir returns the run-cache root directory (the UPP_CACHE_DIR
// environment variable); empty means caching is disabled.
func CacheDir() string { return os.Getenv("UPP_CACHE_DIR") }

// warmStartEnabled reports whether cold runs may checkpoint after warmup
// and later runs may restore those checkpoints. On by default whenever
// the cache is enabled; UPP_CACHE_WARM=0 opts out (results caching keeps
// working).
func warmStartEnabled() bool { return os.Getenv("UPP_CACHE_WARM") != "0" }

// cacheFormatVersion is part of every canonical envelope; bump it when
// the envelope, Point or UPWS snapshot format changes shape so stale
// cache entries miss instead of misleading.
const cacheFormatVersion = 1

// Cache hit/miss counters, process-wide. Hits/Misses count result-cache
// lookups; WarmHits/WarmMisses count warm-start checkpoint lookups on the
// miss path.
var cacheHits, cacheMisses, warmHits, warmMisses atomic.Uint64

// CacheCounters reports the process-wide cache statistics: result-cache
// hits and misses, and warm-start checkpoint hits and misses among the
// result misses. The figures binary prints these so CI can assert a
// re-run was served from cache.
func CacheCounters() (hits, misses, warmStartHits, warmStartMisses uint64) {
	return cacheHits.Load(), cacheMisses.Load(), warmHits.Load(), warmMisses.Load()
}

// specEnvelope is the canonical form of a RunSpec: plain data, fixed
// field order, every result-relevant input made explicit (the router
// architecture is stored resolved). json.Marshal of this struct is the
// cache's canonical byte string.
type specEnvelope struct {
	Format         int                   `json:"format"`
	Topo           topology.SystemConfig `json:"topo"`
	Scale          *topology.ScaleConfig `json:"scale,omitempty"`
	Faults         int                   `json:"faults,omitempty"`
	FaultSeed      uint64                `json:"fault_seed,omitempty"`
	FaultsPerLayer int                   `json:"faults_per_layer,omitempty"`
	FaultPlan      string                `json:"fault_plan,omitempty"`
	Scheme         SchemeName            `json:"scheme"`
	VCsPerVNet     int                   `json:"vcs,omitempty"`
	BufferDepth    int                   `json:"buffer_depth,omitempty"`
	Pattern        string                `json:"pattern"`
	Rate           float64               `json:"rate"`
	Seed           uint64                `json:"seed"`
	Warmup         int                   `json:"warmup"`
	Measure        int                   `json:"measure"`
	UseUpDown      bool                  `json:"up_down,omitempty"`
	Adaptive       bool                  `json:"adaptive,omitempty"`
	VCT            bool                  `json:"vct,omitempty"`
	RouterArch     string                `json:"router"`
	// ChipletGate marks a plan with a killchiplet event. Entries written
	// before the generator of a RunSpec run honoured chiplet fail-stops
	// lack it and so miss. (cacheFormatVersion could not be bumped for
	// this: it is part of every checkpoint's pinned bytes.)
	ChipletGate bool `json:"chiplet_gate,omitempty"`
}

// canonicalSpec canonicalizes a spec for caching. ok is false when the
// spec cannot be addressed by content: a SchemeOverride or a traffic
// pattern outside the registered set has no canonical name, a workload, a
// parsed plan and a reconfiguration mode have no place in the envelope, a
// traced run's side effects cannot come from a cache, and under malformed
// host settings the router architecture is unknown (Assemble reports
// those).
func canonicalSpec(spec RunSpec) (env specEnvelope, canonical []byte, ok bool) {
	if spec.SchemeOverride != nil || spec.TraceLimit > 0 || spec.Pattern == nil ||
		spec.Workload != "" || !spec.Plan.Empty() || spec.Mode != reconfig.ModeAuto {
		return specEnvelope{}, nil, false
	}
	host, err := hostEnv()
	if err != nil {
		return specEnvelope{}, nil, false
	}
	if _, err := traffic.PatternByName(spec.Pattern.Name()); err != nil {
		return specEnvelope{}, nil, false
	}
	env = specEnvelope{
		Format:         cacheFormatVersion,
		Topo:           spec.Topo,
		Scale:          spec.Scale,
		Faults:         spec.Faults,
		FaultSeed:      spec.FaultSeed,
		FaultsPerLayer: spec.FaultsPerLayer,
		FaultPlan:      spec.FaultPlan,
		Scheme:         spec.Scheme,
		VCsPerVNet:     spec.VCsPerVNet,
		BufferDepth:    spec.BufferDepth,
		Pattern:        spec.Pattern.Name(),
		Rate:           spec.Rate,
		Seed:           spec.Seed,
		Warmup:         spec.Dur.Warmup,
		Measure:        spec.Dur.Measure,
		UseUpDown:      spec.UseUpDown,
		Adaptive:       spec.Adaptive,
		VCT:            spec.VCT,
		RouterArch:     host.arch(spec.RouterArch),
		ChipletGate:    strings.Contains(spec.FaultPlan, "killchiplet="),
	}
	canonical, err = json.Marshal(env)
	if err != nil {
		return specEnvelope{}, nil, false
	}
	return env, canonical, true
}

// runSpec rebuilds the RunSpec a canonical envelope describes — the
// inverse of canonicalSpec, used to restore checkpoint containers.
func (e specEnvelope) runSpec() (RunSpec, error) {
	if e.Format != cacheFormatVersion {
		return RunSpec{}, fmt.Errorf("experiments: checkpoint spec format %d (this build reads %d)", e.Format, cacheFormatVersion)
	}
	pat, err := traffic.PatternByName(e.Pattern)
	if err != nil {
		return RunSpec{}, fmt.Errorf("experiments: checkpoint spec: %w", err)
	}
	return RunSpec{
		Topo:           e.Topo,
		Scale:          e.Scale,
		Faults:         e.Faults,
		FaultSeed:      e.FaultSeed,
		FaultsPerLayer: e.FaultsPerLayer,
		FaultPlan:      e.FaultPlan,
		Scheme:         e.Scheme,
		VCsPerVNet:     e.VCsPerVNet,
		BufferDepth:    e.BufferDepth,
		Pattern:        pat,
		Rate:           e.Rate,
		Seed:           e.Seed,
		Dur:            Durations{Warmup: e.Warmup, Measure: e.Measure},
		UseUpDown:      e.UseUpDown,
		Adaptive:       e.Adaptive,
		VCT:            e.VCT,
		// Stored resolved, so the rebuilt run ignores UPP_ROUTER.
		RouterArch: e.RouterArch,
	}, nil
}

// cacheHash addresses a canonical spec.
func cacheHash(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// cachedResult is the results/<hash>.json schema: the canonical spec is
// stored alongside the Point and compared on load, so a hash collision or
// a foreign file can only miss, never serve a wrong result.
type cachedResult struct {
	Spec  json.RawMessage `json:"spec"`
	Point Point           `json:"point"`
}

func resultPath(dir, hash string) string {
	return filepath.Join(dir, "results", hash+".json")
}

func loadCachedPoint(dir, hash string, canonical []byte) (Point, bool) {
	data, err := os.ReadFile(resultPath(dir, hash))
	if err != nil {
		return Point{}, false
	}
	var cr cachedResult
	if json.Unmarshal(data, &cr) != nil || !bytes.Equal(cr.Spec, canonical) {
		return Point{}, false
	}
	return cr.Point, true
}

func storeCachedPoint(dir, hash string, canonical []byte, pt Point) {
	data, err := json.Marshal(cachedResult{Spec: canonical, Point: pt})
	if err != nil {
		return
	}
	writeAtomic(resultPath(dir, hash), append(data, '\n'))
}

// writeAtomic writes data via a temp file and rename. Failures are
// swallowed: the cache is an optimization, never a correctness
// dependency, and a run must not fail because its result could not be
// recorded.
func writeAtomic(path string, data []byte) {
	dir := filepath.Dir(path)
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}

// checkpointMagic heads the standalone checkpoint container ("UPWR" for
// UPward-packet-popup Run): the magic, a little-endian uint32 length, the
// canonical spec JSON, then the network's UPWS snapshot.
const checkpointMagic = "UPWR"

// snapshotExtras assembles the SnapshotExtra list for a BuildRun
// environment: the generator, plus the fault injector when it carries
// snapshot state of its own (the reconfiguration engine does; the plain
// flap injector resyncs from the restored cycle instead).
func snapshotExtras(n *network.Network, g *traffic.Generator) []network.SnapshotExtra {
	extras := []network.SnapshotExtra{g}
	if ex, ok := n.FaultInjector().(network.SnapshotExtra); ok {
		extras = append(extras, ex)
	}
	return extras
}

// writeCheckpointTo writes the container for an in-flight run.
func writeCheckpointTo(w io.Writer, canonical []byte, n *network.Network, g *traffic.Generator) error {
	var hdr bytes.Buffer
	hdr.WriteString(checkpointMagic)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(canonical)))
	hdr.Write(lenBuf[:])
	hdr.Write(canonical)
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	return n.WriteSnapshot(w, snapshotExtras(n, g)...)
}

// splitCheckpoint separates a container into its spec and snapshot bytes.
func splitCheckpoint(data []byte) (spec, snapshot []byte, err error) {
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, nil, fmt.Errorf("experiments: not a %s checkpoint", checkpointMagic)
	}
	n := binary.LittleEndian.Uint32(data[len(checkpointMagic):])
	rest := data[len(checkpointMagic)+4:]
	if uint64(len(rest)) < uint64(n) {
		return nil, nil, fmt.Errorf("experiments: checkpoint truncated (spec claims %d bytes, %d remain)", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// ReadCheckpoint rebuilds the environment a checkpoint describes and
// restores its state, returning the network, generator and embedded spec
// positioned at the snapshot cycle.
func ReadCheckpoint(data []byte) (*network.Network, *traffic.Generator, RunSpec, error) {
	canonical, snapBytes, err := splitCheckpoint(data)
	if err != nil {
		return nil, nil, RunSpec{}, err
	}
	var env specEnvelope
	if err := json.Unmarshal(canonical, &env); err != nil {
		return nil, nil, RunSpec{}, fmt.Errorf("experiments: checkpoint spec: %w", err)
	}
	spec, err := env.runSpec()
	if err != nil {
		return nil, nil, RunSpec{}, err
	}
	n, g, err := BuildRun(spec)
	if err != nil {
		return nil, nil, RunSpec{}, err
	}
	if err := n.ReadSnapshot(snapBytes, snapshotExtras(n, g)...); err != nil {
		return nil, nil, RunSpec{}, err
	}
	return n, g, spec, nil
}

// RunCheckpointed is Run with a mid-run checkpoint: when the simulation
// reaches absolute cycle at (warmup and measurement form one timeline
// starting at 0), its state is written to out, and the run then continues
// to completion. The Point is bit-identical to Run's — the checkpoint is
// a pure observation. The result cache is bypassed (a cache hit would
// skip the cycles the checkpoint must observe).
func RunCheckpointed(spec RunSpec, at int64, out io.Writer) (Point, error) {
	n, g, err := BuildRun(spec)
	if err != nil {
		return Point{}, err
	}
	_, canonical, ok := canonicalSpec(spec)
	if !ok {
		return Point{}, fmt.Errorf("experiments: spec is not checkpointable (custom scheme, unregistered pattern or tracing)")
	}
	return finishRun(spec, n, g, at, func() error {
		return writeCheckpointTo(out, canonical, n, g)
	})
}

// RunRestored resumes a checkpoint container and carries the run to the
// end of its embedded schedule, returning the Point and the embedded
// spec. The Point is bit-identical to the uninterrupted run's (the
// checkpoint/restore equivalence tests pin this).
func RunRestored(data []byte) (Point, RunSpec, error) {
	n, g, spec, err := ReadCheckpoint(data)
	if err != nil {
		return Point{}, RunSpec{}, err
	}
	pt, err := finishRun(spec, n, g, 0, nil)
	return pt, spec, err
}

// warmState carries the warm-start checkpoint identity through one cold
// run: the canonical spec with Measure zeroed, so every measurement
// length shares one post-warmup snapshot.
type warmState struct {
	dir       string
	canonical []byte
	hash      string
}

// newWarmState derives the warm key for a cacheable spec; nil when
// warm-starting is disabled.
func newWarmState(dir string, env specEnvelope) *warmState {
	if !warmStartEnabled() {
		return nil
	}
	env.Measure = 0
	canonical, err := json.Marshal(env)
	if err != nil {
		return nil
	}
	return &warmState{dir: dir, canonical: canonical, hash: cacheHash(canonical)}
}

func (ws *warmState) path() string {
	return filepath.Join(ws.dir, "warm", ws.hash+".upws")
}

// load returns the stored snapshot bytes when a matching warm checkpoint
// exists.
func (ws *warmState) load() ([]byte, bool) {
	data, err := os.ReadFile(ws.path())
	if err != nil {
		return nil, false
	}
	spec, snapshot, err := splitCheckpoint(data)
	if err != nil || !bytes.Equal(spec, ws.canonical) {
		return nil, false
	}
	return snapshot, true
}

// store checkpoints the post-warmup state. Failures (e.g. an unwritable
// cache directory) are swallowed; the run proceeds unaffected.
func (ws *warmState) store(n *network.Network, g *traffic.Generator) {
	var buf bytes.Buffer
	if writeCheckpointTo(&buf, ws.canonical, n, g) != nil {
		return
	}
	writeAtomic(ws.path(), buf.Bytes())
}
