package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uppnoc/internal/experiments"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// sweepCurve is one latency-vs-rate curve of the fig7 sweep.
type sweepCurve struct {
	Pattern traffic.Pattern
	VCs     int
	Scheme  experiments.SchemeName
}

func (c sweepCurve) label() string {
	return fmt.Sprintf("%s-%dVC-%s", c.Scheme, c.VCs, c.Pattern.Name())
}

func (c sweepCurve) spec(seed uint64, dur experiments.Durations) experiments.RunSpec {
	return experiments.RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     c.Scheme,
		VCsPerVNet: c.VCs,
		Pattern:    c.Pattern,
		Seed:       seed,
		Dur:        dur,
	}
}

// sweepCurves returns the curves of the timed sweep, in the order
// experiments.Fig7 runs them: {uniform_random, transpose} x {composable,
// remote_control, upp} at 1 VC, over DefaultRates at QuickDurations. The
// first three are the subset the traced run's extra legs use.
func sweepCurves() []sweepCurve {
	var cs []sweepCurve
	for _, pat := range []traffic.Pattern{traffic.UniformRandom{}, traffic.Transpose{}} {
		for _, sch := range experiments.ComparedSchemes() {
			cs = append(cs, sweepCurve{Pattern: pat, VCs: 1, Scheme: sch})
		}
	}
	return cs
}

// sweepRep is the outcome of one pass over the curves: points kept in the
// curves, points the pool ran (a wave past the stopping rule is run and
// discarded), and per curve its wall time and run count.
type sweepRep struct {
	Wall        time.Duration
	Kept, Run   int
	Curves      []experiments.Curve
	CurveWall   []time.Duration
	CurveRun    []int
	FirstFailed error
}

// runSweep sweeps every curve once through the pool at jobs workers.
func runSweep(curves []sweepCurve, seed uint64, dur experiments.Durations, jobs int) sweepRep {
	var rep sweepRep
	// The pool serializes OnRun calls.
	opts := experiments.PoolOptions{Jobs: jobs, OnRun: func(done, total int) { rep.Run++ }}
	begin := time.Now()
	for _, c := range curves {
		t0, ran := time.Now(), rep.Run
		curve, err := experiments.SweepRatesWith(c.spec(seed, dur), experiments.DefaultRates(), c.label(), opts)
		if err != nil && rep.FirstFailed == nil {
			rep.FirstFailed = err
		}
		rep.Curves = append(rep.Curves, curve)
		rep.CurveWall = append(rep.CurveWall, time.Since(t0))
		rep.CurveRun = append(rep.CurveRun, rep.Run-ran)
		rep.Kept += len(curve.Points)
	}
	rep.Wall = time.Since(begin)
	return rep
}

// sweepRows formats the curves' points as experiments.Fig7 formats the rows of
// results/fig7.csv.
func sweepRows(curves []sweepCurve, got []experiments.Curve) []string {
	var t experiments.Table
	for i, c := range curves {
		for _, pt := range got[i].Points {
			t.AddRowf(c.Pattern.Name(), string(c.Scheme), c.VCs, pt.Rate, pt.TotalLat, pt.NetLat, pt.QueueLat, pt.Throughput, pt.Saturated)
		}
	}
	rows := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = strings.Join(r, ",")
	}
	return rows
}

// checkAgainstCSV compares the swept rows with the rows of the committed
// results/fig7.csv that belong to the same curves. It returns one message
// per differing row.
func checkAgainstCSV(curves []sweepCurve, rows []string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join("results", "fig7.csv"))
	if err != nil {
		return nil, err
	}
	prefixes := map[string]bool{}
	for _, c := range curves {
		prefixes[fmt.Sprintf("%s,%s,%d,", c.Pattern.Name(), c.Scheme, c.VCs)] = true
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		f := strings.SplitN(line, ",", 4)
		if len(f) == 4 && prefixes[f[0]+","+f[1]+","+f[2]+","] {
			want = append(want, line)
		}
	}
	// fig7.csv is ordered vcs-major like sweepCurves, but sort both so
	// the comparison does not depend on curve order.
	got := append([]string(nil), rows...)
	sort.Strings(got)
	sort.Strings(want)
	var diffs []string
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			diffs = append(diffs, "missing row "+want[i])
		case i >= len(want):
			diffs = append(diffs, "extra row "+got[i])
		case got[i] != want[i]:
			diffs = append(diffs, fmt.Sprintf("row %q, results/fig7.csv has %q", got[i], want[i]))
		}
	}
	return diffs, nil
}
