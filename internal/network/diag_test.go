package network_test

import (
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// diagScheme is None with the optional Diagnostic method.
type diagScheme struct{ network.None }

func (diagScheme) Name() string       { return "diag" }
func (diagScheme) Diagnostic() string { return "popup 7: stage=req\n" }

// TestStallDiagnosticCarriesSchemeState: the watchdog report includes the
// state a scheme offers through Diagnostic under "scheme <name>:", and no
// scheme block for a scheme that offers none.
func TestStallDiagnosticCarriesSchemeState(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	d := network.MustNew(topo, network.DefaultConfig(), diagScheme{}).StallDiagnosticNow(100)
	if d.SchemeName != "diag" || d.SchemeState != "popup 7: stage=req\n" {
		t.Fatalf("scheme %q state %q, want diag's Diagnostic", d.SchemeName, d.SchemeState)
	}
	if !strings.HasSuffix(d.Error(), "\nscheme diag:\npopup 7: stage=req\n") {
		t.Fatalf("report does not end with the scheme block:\n%s", d.Error())
	}
	d = network.MustNew(topo, network.DefaultConfig(), network.None{}).StallDiagnosticNow(100)
	if d.SchemeState != "" || strings.Contains(d.Error(), "\nscheme ") {
		t.Fatalf("None reported scheme state %q:\n%s", d.SchemeState, d.Error())
	}
}
