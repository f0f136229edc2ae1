package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uppnoc/internal/network"
)

// TestKernelCSVGolden: the CSV artifacts of the figure pipeline must be
// byte-identical under the active-set, naive and parallel kernels. Fig2
// runs in full (the design-time search is simulation-free but belongs to
// the artifact set); fig7 runs its entry of the figure list trimmed to a
// single traffic pattern with short windows, so every sweep, truncation
// and summary computation executes on every kernel. The CI
// smoke step diffs the untrimmed fig7 quick run the same way.
func TestKernelCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	dur := Durations{Warmup: 500, Measure: 2500}
	render := func(kernel string) string {
		opts := PoolOptions{Jobs: 1, Kernel: kernel}
		tables, err := Fig2(opts)
		if err != nil {
			t.Fatal(err)
		}
		fig := sweepFigure(t, "fig7")
		var uniform []swept
		for _, c := range fig.curves(dur) {
			if c.Spec.Pattern.Name() == "uniform_random" {
				uniform = append(uniform, c)
			}
		}
		fig7, err := fig.sweep(uniform, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range append(tables, fig7...) {
			sb.WriteString(tb.CSV())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	active := render(network.KernelActive)
	for _, kernel := range []string{network.KernelNaive, network.KernelParallel} {
		if d := csvDiff(render(kernel), active, kernel, "active"); d != "" {
			t.Fatalf("CSV output diverges: %s", d)
		}
	}
}

// goldenTable is the acceptance gate of a committed table: regenerating
// table id must byte-match results/<id>.csv under every cycle kernel and
// at one and four sweep workers. A mismatch means either a behavior change
// (regenerate the CSV deliberately with `make <target>`) or a determinism
// break (fix the code). The (active, jobs 4) leg also hands its table to
// shape, the table's qualitative checks, as subtest "completes".
func goldenTable(t *testing.T, id, target string, shape func(*testing.T, Table)) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	wantBytes, err := os.ReadFile(filepath.Join("..", "..", "results", id+".csv"))
	if err != nil {
		t.Fatalf("committed golden missing (regenerate with `make %s`): %v", target, err)
	}
	for _, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
		for _, jobs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s_jobs%d", kernel, jobs), func(t *testing.T) {
				t.Setenv("UPP_CACHE_DIR", "") // simulate under the kernel, not read a result
				tb := tableByID(t, id, PoolOptions{Jobs: jobs, Kernel: kernel})
				if kernel == network.KernelActive && jobs == 4 {
					t.Run("completes", func(t *testing.T) { shape(t, tb) })
				}
				if d := csvDiff(tb.CSV(), string(wantBytes), "got", "committed"); d != "" {
					t.Fatalf("diverges from the committed golden: %s", d)
				}
			})
		}
	}
}

// csvDiff reports the first line where CSV got departs from want, or ""
// when they are equal; the names label the two sides.
func csvDiff(got, want, gotName, wantName string) string {
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n%s: %s\n%s: %s", i+1, wantName, wl[i], gotName, gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %s %d, %s %d", wantName, len(wl), gotName, len(gl))
}
