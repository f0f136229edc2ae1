package experiments

import (
	"fmt"

	"uppnoc/internal/power"
)

// Table1 reproduces the qualitative comparison of deadlock-freedom
// approaches (design modularity / performance / flexibility) — for the
// three approaches this repository actually implements, the properties
// are exhibited by the code itself (see Notes).
func Table1() Table {
	t := Table{
		ID:    "table1",
		Title: "Qualitative comparison (paper Table I, implemented rows)",
		Header: []string{"approach", "topology_modularity", "vc_modularity", "flow_ctrl_modularity",
			"full_path_diversity", "no_injection_control", "topology_independence"},
	}
	t.AddRow("dally_theory", "no", "yes", "yes", "no", "yes", "no")
	t.AddRow("duato_theory", "no", "no", "yes", "no", "yes", "no")
	t.AddRow("bubble_flow_control", "yes", "yes", "no", "yes", "yes", "yes")
	t.AddRow("deflection", "yes", "yes", "no", "yes", "yes", "yes")
	t.AddRow("spin", "yes", "yes", "no", "yes", "yes", "yes")
	t.AddRow("composable", "yes", "yes", "yes", "no", "yes", "no")
	t.AddRow("remote_control", "yes", "yes", "yes", "yes", "no", "no")
	t.AddRow("upp", "yes", "yes", "yes", "yes", "yes", "yes")
	t.Notes = []string{
		"composable: internal/composable restricts boundary turns (no full path diversity) and needs a design-time search (no topology independence)",
		"remote_control: internal/remotectl gates injection (no injection-control freedom) on a fixed permission tree (no topology independence)",
		"upp: internal/core needs no restrictions, no injection control, and works on faulty topologies (Fig. 11)",
	}
	return t
}

// Table2 prints the simulation configuration actually used, mirroring the
// paper's Table II.
func Table2() Table {
	t := Table{
		ID:     "table2",
		Title:  "Simulation configuration (paper Table II)",
		Header: []string{"parameter", "value"},
	}
	rows := [][2]string{
		{"topology (baseline)", "4x4 mesh interposer + 4 chiplets of 4x4 mesh, 4 boundary routers each"},
		{"topology (large, fig9)", "4x8 mesh interposer + 8 chiplets of 4x4 mesh"},
		{"virtual networks", "3 (request / forward / response, MESI)"},
		{"VCs per VNet", "1 or 4"},
		{"VC buffer depth", "4 flits"},
		{"router pipeline", "3 stages (BW+RC, SA+VCS, ST) + 1-cycle link"},
		{"flow control", "wormhole, credit-based"},
		{"packet sizes", "control 1 flit, data 5 flits"},
		{"synthetic traffic", "uniform random, bit complement, bit rotation, transpose"},
		{"full-system substitute", "MESI directory protocol + 18 PARSEC/SPLASH-2 profiles (internal/coherence)"},
		{"coherence", "private L1 per core (128 sets x 4 ways), blocking cores (one miss in flight), 8 interposer directories with shared L2 banks (8-cycle hit) and DRAM (60-cycle fill)"},
		{"UPP detection threshold", "20 cycles (fig13 sweeps 20/100/1000)"},
		{"UPP signal gap", "data packet size + 1 = 6 cycles"},
		{"remote control", "4 boundary slots, 2-cycle handshake, +1 cycle boundary crossing"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// Fig14 reproduces the hardware-overhead comparison from the area model.
func Fig14() Table {
	t := Table{
		ID:     "fig14",
		Title:  "Hardware overhead per router (area model calibrated to the paper's DC numbers)",
		Header: []string{"router", "vcs", "composable", "remote_control", "upp"},
		Notes: []string{
			"paper: composable ~0%, remote control 4.14%/1.65% (chiplet), UPP 3.77%/1.50% (chiplet) and 2.62%/1.47% (interposer); all <4%",
		},
	}
	for _, kind := range []power.RouterKind{power.ChipletRouter, power.InterposerRouter} {
		name := "chiplet"
		if kind == power.InterposerRouter {
			name = "interposer"
		}
		for _, vcs := range []int{1, 4} {
			t.AddRow(name, fmt.Sprintf("%d", vcs),
				fmt.Sprintf("%.2f%%", power.OverheadPercent("composable", kind, vcs)),
				fmt.Sprintf("%.2f%%", power.OverheadPercent("remote_control", kind, vcs)),
				fmt.Sprintf("%.2f%%", power.OverheadPercent("upp", kind, vcs)))
		}
	}
	return t
}
