package router

import "testing"

// TestBufferBudgetEqualAcrossArchs pins the equal-resource rule the
// router comparison depends on: for every configuration the figures run,
// the three microarchitectures get exactly the same total flit-slot
// budget per port — iq and voq spend it all on input VC depth, oq splits
// it between shallower input VCs and the per-output staging FIFO.
func TestBufferBudgetEqualAcrossArchs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"paper_1vc", Config{VCsPerVNet: 1, BufferDepth: 4}},
		{"paper_4vc", Config{VCsPerVNet: 4, BufferDepth: 4}},
		{"deep_buffers", Config{VCsPerVNet: 1, BufferDepth: 8}},
		{"ablation_depth2", Config{VCsPerVNet: 1, BufferDepth: 2}},
		{"ablation_depth6", Config{VCsPerVNet: 2, BufferDepth: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			budget := BufferBudget(tc.cfg)
			if want := tc.cfg.NumVCs() * tc.cfg.BufferDepth; budget != want {
				t.Fatalf("BufferBudget = %d, want %d", budget, want)
			}
			for _, arch := range []string{ArchIQ, ArchOQ, ArchVOQ} {
				lay, err := LayoutFor(arch, tc.cfg)
				if err != nil {
					t.Fatalf("LayoutFor(%s): %v", arch, err)
				}
				if got := lay.TotalPerPort(tc.cfg); got != budget {
					t.Errorf("%s: TotalPerPort = %d (input depth %d, staged %d), want budget %d",
						arch, got, lay.InputDepth, lay.StageSlots, budget)
				}
				if lay.InputDepth < 1 {
					t.Errorf("%s: input depth %d leaves no input buffering", arch, lay.InputDepth)
				}
			}
		})
	}
}

// TestLayoutForRejections pins the error surface: unknown arch names get
// a kernel-style "want ..." error, and oq refuses configurations whose
// split would be degenerate.
func TestLayoutForRejections(t *testing.T) {
	if _, err := LayoutFor("banyan", DefaultConfig()); err == nil {
		t.Error("unknown arch accepted")
	} else if want := `router: unknown arch "banyan" (want "iq", "oq" or "voq")`; err.Error() != want {
		t.Errorf("unknown-arch error = %q, want %q", err, want)
	}
	shallow := DefaultConfig()
	shallow.BufferDepth = 1
	if _, err := LayoutFor(ArchOQ, shallow); err == nil {
		t.Error("oq accepted BufferDepth=1 (cannot split the budget)")
	}
	vct := DefaultConfig()
	vct.VCT = true
	vct.BufferDepth = 8
	if _, err := LayoutFor(ArchOQ, vct); err == nil {
		t.Error("oq accepted virtual cut-through")
	}
	for _, arch := range []string{ArchIQ, ArchVOQ} {
		if _, err := LayoutFor(arch, vct); err != nil {
			t.Errorf("%s rejected VCT: %v", arch, err)
		}
	}
}
