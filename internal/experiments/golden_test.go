package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestGoldenShapes pins the evaluation's qualitative shapes with loose
// numeric bounds, so a refactor that silently breaks a scheme's relative
// performance fails here rather than in a full figures run.
func TestGoldenShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	dur := Durations{Warmup: 2000, Measure: 10000}
	point := func(sch SchemeName, rate float64) Point {
		t.Helper()
		pt, err := Run(RunSpec{
			Topo:       topology.BaselineConfig(),
			Scheme:     sch,
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       rate,
			Seed:       11,
			Dur:        dur,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}

	// Low-load latency ordering: UPP < composable < remote control is not
	// required (composable vs RC order varies), but UPP must be strictly
	// lowest and all three must accept the offered load.
	low := map[SchemeName]Point{}
	for _, sch := range ComparedSchemes() {
		pt := point(sch, 0.02)
		low[sch] = pt
		if pt.Saturated {
			t.Fatalf("%s saturated at 0.02 flits/cycle/node", sch)
		}
		if pt.Throughput < 0.018 {
			t.Fatalf("%s accepted only %.4f of 0.02", sch, pt.Throughput)
		}
	}
	upp := low[SchemeUPP].TotalLat
	for _, sch := range []SchemeName{SchemeComposable, SchemeRemoteControl} {
		if upp >= low[sch].TotalLat {
			t.Fatalf("UPP latency %.1f not below %s's %.1f", upp, sch, low[sch].TotalLat)
		}
	}
	// Sanity window for the absolute zero-load latency (pipeline bug
	// canary): ~8 avg hops x 3 cycles + serialization.
	if upp < 15 || upp > 35 {
		t.Fatalf("UPP low-load latency %.1f outside the plausible window", upp)
	}

	// Mid-load: composable must be past (or near) its knee while UPP is
	// comfortable — the saturation-gap shape of Fig. 7.
	compMid := point(SchemeComposable, 0.07)
	uppMid := point(SchemeUPP, 0.07)
	if uppMid.Saturated {
		t.Fatalf("UPP saturated at 0.07 (lat %.1f)", uppMid.TotalLat)
	}
	if compMid.TotalLat < uppMid.TotalLat*1.3 {
		t.Fatalf("composable@0.07 latency %.1f should be well above UPP's %.1f", compMid.TotalLat, uppMid.TotalLat)
	}

	// UPP must survive far past every scheme's knee (recovery, not
	// avoidance, keeps it live).
	deep := point(SchemeUPP, 0.15)
	if deep.Throughput < 0.05 {
		t.Fatalf("UPP accepted throughput collapsed at overload: %.4f", deep.Throughput)
	}
}

// goldenTable is the acceptance gate of a committed table: table id must
// byte-match results/<id>.csv under every cycle kernel at one and four
// sweep workers (else regenerate it deliberately with `make <target>`, or
// fix a determinism break). Subtest active_jobs4 renders it, simulating
// each spec once under the default kernel, and hands it to shape as
// subtest "completes". The render's specs then form a case under the
// naive and parallel kernels, and each other leg renders the table from
// its kernel's digests, simulating nothing again.
func goldenTable(t *testing.T, id, target string, shape func(*testing.T, Table)) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", id+".csv"))
	if err != nil {
		t.Fatalf("committed golden missing (regenerate with `make %s`): %v", target, err)
	}
	match := func(t *testing.T, tb Table) {
		if got := tb.CSV(); got != string(want) {
			line := strings.Count(got[:firstDiff([]byte(got), want)], "\n")
			t.Fatalf("diverges from the committed golden at line %d:\ncommitted: %s\ngot:       %s",
				line+1, strings.Split(string(want), "\n")[line], strings.Split(got, "\n")[line])
		}
	}
	c := equivCase{variants: []variant{naive, parallel}}
	if !t.Run("active_jobs4", func(t *testing.T) {
		tb := tableByID(t, id, c.record(4))
		t.Run("completes", func(t *testing.T) { shape(t, tb) })
		match(t, tb)
	}) {
		return
	}
	ds := c.equivalent(t)
	for k, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
		served := map[string]digest{}
		for i, s := range c.specs {
			served[specKey(s)] = ds[i][k]
		}
		for _, jobs := range []int{1, 4} {
			if k > 0 || jobs == 1 {
				t.Run(fmt.Sprintf("%s_jobs%d", kernel, jobs), func(t *testing.T) {
					match(t, tableByID(t, id, PoolOptions{Jobs: jobs, run: func(spec RunSpec) (Point, error) {
						d := served[specKey(spec)] // a spec the render never ran: a zero Point
						return d.pt, d.err
					}}))
				})
			}
		}
	}
}

// TestRouterCompareGolden is the acceptance gate for the router
// microarchitecture comparison (goldenTable on results/router_compare.csv).
// Kernel invariance here proves the oq and voq Step implementations honor
// the shard concurrency contract the same way the iq pipeline does.
//
// Its "completes" subtest pins the qualitative acceptance claim: the oq
// and voq variants complete every router-comparison workload
// deadlock-free under all three schemes (completed=true on every row of
// the table), and the large all-to-all exercises UPP recovery on the oq
// datapath (its staging changes packing enough to need more popups than
// iq, not fewer).
func TestRouterCompareGolden(t *testing.T) {
	goldenTable(t, "router_compare", "router-golden", routerCompareCompletes)
}

func routerCompareCompletes(t *testing.T, tb Table) {
	var uppOQPopups string
	for _, row := range tb.Rows {
		if row[4] != "true" {
			t.Errorf("%s under %s on %s did not complete", row[0], row[1], row[2])
		}
		if row[0] == "all_to_all:flits=10" && row[1] == "upp" && row[2] == "oq" {
			uppOQPopups = row[9]
		}
	}
	if uppOQPopups == "" || uppOQPopups == "0" {
		t.Errorf("large all-to-all under UPP on oq completed %q popups — recovery path untested on the oq datapath", uppOQPopups)
	}
}

// TestCollectivesGolden is the acceptance gate for the workload engine
// (goldenTable on results/collectives.csv).
//
// Its "completes" subtest pins the table's qualitative shape the way
// TestGoldenShapes does for Fig. 7: every compared scheme finishes every
// workload within the horizon, UPP is never slower than composable, and
// the bursty all-to-all exercises UPP's recovery path while remote control
// pays injection holds.
func TestCollectivesGolden(t *testing.T) {
	goldenTable(t, "collectives", "collectives-golden", collectivesComplete)
}

func collectivesComplete(t *testing.T, tb Table) {
	rows := map[[2]string][]string{}
	for _, row := range tb.Rows {
		if row[2] != "true" {
			t.Fatalf("%s under %s did not complete", row[0], row[1])
		}
		rows[[2]string{row[0], row[1]}] = row
	}
	cell := func(wl string, sch SchemeName, col int) int {
		t.Helper()
		row, ok := rows[[2]string{wl, string(sch)}]
		if !ok {
			t.Fatalf("no row for %s under %s", wl, sch)
		}
		v, err := strconv.Atoi(row[col])
		if err != nil {
			t.Fatalf("%s under %s, column %d: %v", wl, sch, col, err)
		}
		return v
	}
	const finish, upward, injHolds = 3, 8, 11
	for _, wl := range []string{"ring_allreduce", "all_to_all"} {
		if upp, comp := cell(wl, SchemeUPP, finish), cell(wl, SchemeComposable, finish); upp > comp {
			t.Errorf("%s: UPP finishes at %d, after composable's %d", wl, upp, comp)
		}
		if cell(wl, SchemeRemoteControl, injHolds) == 0 {
			t.Errorf("%s: remote control reports zero injection holds — the gate is not engaging", wl)
		}
	}
	if cell("all_to_all:flits=10", SchemeUPP, upward) == 0 {
		t.Error("large all-to-all under UPP never selected an upward packet — the closed loop is not stressing recovery")
	}
}
