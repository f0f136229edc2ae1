package experiments

import (
	"bytes"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestKillChipletGatesRunSpec: a killchiplet event in a RunSpec's fault
// plan stops the chiplet — the generator BuildRun attaches is gated on
// the reconfiguration engine, as the soaks' always was. The run measures
// strictly fewer packets than the same spec without the event, no packet
// born after the kill has an endpoint in the dead chiplet, and the Point
// is the same under every kernel and across a checkpoint/restore split
// that straddles the kill.
func TestKillChipletGatesRunSpec(t *testing.T) {
	const killAt, chiplet = 1500, 1
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.04,
		Seed:       11,
		Dur:        Durations{Warmup: 1000, Measure: 3000},
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.FaultPlan = "killchiplet=1@1500"
	var ref Point
	for i, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
		spec.Kernel = kernel
		pt, err := Run(spec)
		if err != nil {
			t.Fatalf("kernel %s: %v", kernel, err)
		}
		if i == 0 {
			ref = pt
		} else if pt != ref {
			t.Fatalf("kernel %s diverges from active:\n%+v\nvs\n%+v", kernel, pt, ref)
		}
	}
	spec.Kernel = ""
	if ref.Packets >= plain.Packets {
		t.Fatalf("killing chiplet %d left %d measured packets, not fewer than the %d without the kill", chiplet, ref.Packets, plain.Packets)
	}

	var buf bytes.Buffer
	if _, err := RunCheckpointed(spec, 1200, &buf); err != nil {
		t.Fatal(err)
	}
	if pt, _, err := RunRestored(buf.Bytes()); err != nil || pt != ref {
		t.Fatalf("restored from before the kill: err %v\n%+v\nvs uninterrupted\n%+v", err, pt, ref)
	}

	n, g, err := BuildRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	for _, ni := range n.NIs {
		consume := ni.Consume
		ni.Consume = func(p *message.Packet, cycle sim.Cycle) bool {
			if n.Topo.Node(p.Src).Chiplet == chiplet || n.Topo.Node(p.Dst).Chiplet == chiplet {
				if p.BirthCycle > killAt {
					after++
				} else {
					before++
				}
			}
			return consume(p, cycle)
		}
	}
	Drive(n, g, 4000, nil)
	if before == 0 || after != 0 {
		t.Fatalf("chiplet %d saw %d packets born up to cycle %d and %d after; want some and none", chiplet, before, killAt, after)
	}
}
