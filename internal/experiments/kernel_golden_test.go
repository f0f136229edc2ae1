package experiments

import (
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
		t.Setenv("UPP_KERNEL", kernel)
		tables, err := Fig2(PoolOptions{Jobs: 1})
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
		fig7, err := fig.sweep(uniform, PoolOptions{Jobs: 1})
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
		other := render(kernel)
		if active == other {
			continue
		}
		al, ol := strings.Split(active, "\n"), strings.Split(other, "\n")
		for i := 0; i < len(al) && i < len(ol); i++ {
			if al[i] != ol[i] {
				t.Fatalf("CSV output diverges at line %d:\nactive: %s\n%s: %s", i+1, al[i], kernel, ol[i])
			}
		}
		t.Fatalf("CSV lengths differ: active %d lines, %s %d lines", len(al), kernel, len(ol))
	}
}
