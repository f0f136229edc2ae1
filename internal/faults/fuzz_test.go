package faults_test

import (
	"slices"
	"testing"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/topology"
)

// FuzzFaultSpec feeds arbitrary strings to ParseSpec — the decoder of
// -fault-plan input — and installs every plan it accepts
// with reconfig.Attach on a baseline network. Each input must give an
// error or a plan, never a panic, and an accepted plan must hold the
// parser's promises: every window non-empty and inside [0, MaxInt64), the
// persistent events in batch order, and a transition mode only beside a
// persistent event.
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7,flaps=3,flapdur=200,stalls=2,drop=0.2,delayprob=0.1,delaymax=5,start=50",
		"seed=9,flaps=4,flapevery=800,drop=0.15,delayprob=0.1",
		"kill=3@3000,kill=9@3000,mode=epoch",
		"add=3@2000,killchiplet=1@900,kill=7@500,kill=3@500,mode=drainless",
		"kill=0@1,kill=0@1,add=0@1",
		"killchiplet=99@5",
		"flaps=1000000000",
		"flaps=3,flapevery=4611686018427387904",
		"stalls=2,stallevery=1",
		"mode=auto",
		"drop=0.5,dropreq=1",
	} {
		f.Add(seed)
	}
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.UseUpDown = true
	n := network.MustNew(topo, cfg, network.None{})
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := faults.ParseSpec(topo, spec)
		if err != nil {
			return
		}
		for i, fl := range plan.Flaps {
			if fl.Start < 0 || fl.End <= fl.Start {
				t.Fatalf("%q: flap %d has window [%d, %d)", spec, i, fl.Start, fl.End)
			}
		}
		for i, st := range plan.Stalls {
			if st.Start < 0 || st.End <= st.Start {
				t.Fatalf("%q: stall %d has window [%d, %d)", spec, i, st.Start, st.End)
			}
		}
		if !slices.IsSortedFunc(plan.Events, faults.CompareEvents) {
			t.Fatalf("%q: events out of batch order: %+v", spec, plan.Events)
		}
		if plan.Mode != faults.ModeAuto && !plan.Persistent() {
			t.Fatalf("%q: mode %d without a persistent event", spec, plan.Mode)
		}
		eng, err := reconfig.Attach(n, plan)
		if err == nil && (eng != nil) != plan.Persistent() {
			t.Fatalf("%q: Attach built engine %v for a plan with %d events", spec, eng != nil, len(plan.Events))
		}
		n.SetFaultInjector(nil)
	})
}
