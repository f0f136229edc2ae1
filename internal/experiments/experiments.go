// Package experiments reproduces the evaluation of the UPP paper: one
// list of experiments (Experiments), whose sweep figures are data — a
// RunSpec template, its axes and a reducer to tables. The cmd/figures
// binary and the repository-level benchmarks call into this package;
// DESIGN.md's experiment index maps each paper artifact to its entry.
package experiments

import (
	"fmt"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/topology"
)

// SchemeName identifies one of the compared approaches.
type SchemeName string

// The compared schemes.
const (
	SchemeComposable    SchemeName = "composable"
	SchemeRemoteControl SchemeName = "remote_control"
	SchemeUPP           SchemeName = "upp"
	SchemeNone          SchemeName = "none"
)

// ComparedSchemes returns the paper's three compared approaches in its
// plotting order.
func ComparedSchemes() []SchemeName {
	return []SchemeName{SchemeComposable, SchemeRemoteControl, SchemeUPP}
}

// MakeScheme instantiates a fresh scheme for a topology. Each network
// needs its own instance (schemes carry per-router state).
func MakeScheme(name SchemeName, topo *topology.Topology) (network.Scheme, error) {
	switch name {
	case SchemeComposable:
		return composable.BuildTables(topo)
	case SchemeRemoteControl:
		return remotectl.New(), nil
	case SchemeUPP:
		return core.New(core.DefaultConfig()), nil
	case SchemeNone:
		return network.None{}, nil
	}
	return nil, fmt.Errorf("experiments: unknown scheme %q", name)
}

// Durations controls warmup and measurement lengths. The paper uses 10k
// warmup + 100k measurement cycles; benchmarks scale these down.
type Durations struct {
	Warmup  int
	Measure int
}

// PaperDurations returns the full-length setting of Table II's
// methodology.
func PaperDurations() Durations { return Durations{Warmup: 10000, Measure: 100000} }

// QuickDurations returns a CI-friendly setting that preserves curve
// shapes.
func QuickDurations() Durations { return Durations{Warmup: 3000, Measure: 15000} }
