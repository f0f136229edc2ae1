package experiments

import (
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// KernelBench is a UPP simulation prepared for cycle-kernel measurement:
// Run advances whole cycles, so a benchmark that maps b.N to cycles reads
// ns/op directly as ns per simulated cycle. The BenchmarkKernel*
// benchmarks, cmd/profile and the zero-allocation pins share it so they
// all measure the same loop.
type KernelBench struct {
	src TrafficSource
	net *network.Network
}

// TrafficSource is the injection side of a benched simulation, ticked
// once per cycle before Network.Step: a rate-driven traffic.Generator or
// a closed-loop workload.Engine.
type TrafficSource interface {
	Tick(cycle sim.Cycle)
}

// NewKernelBench builds a UPP system under cfg — the baseline system, or
// the scale-out preset when scale is non-nil — and attaches the traffic
// source that source builds on it. Host settings (UPP_KERNEL and friends)
// fill the fields cfg leaves unset, as for every experiments run. No
// cycle is simulated: callers Run their own warmup, long enough that the
// measured window sees steady-state occupancy rather than a cold, empty
// network (which would flatter the active-set kernel).
func NewKernelBench(cfg network.Config, scale *topology.ScaleConfig, source func(*network.Network) (TrafficSource, error)) (*KernelBench, error) {
	var topo *topology.Topology
	var err error
	if scale != nil {
		topo, err = topology.BuildScale(*scale)
	} else {
		topo, err = topology.Build(topology.BaselineConfig())
	}
	if err != nil {
		return nil, err
	}
	n, err := NewNetwork(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	src, err := source(n)
	if err != nil {
		return nil, err
	}
	return &KernelBench{src: src, net: n}, nil
}

// UniformTraffic is the open-loop source of the kernel benchmarks:
// uniform random traffic at the given offered load.
func UniformTraffic(rate float64) func(*network.Network) (TrafficSource, error) {
	return func(n *network.Network) (TrafficSource, error) {
		return traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 99), nil
	}
}

// TrainingStepTraffic is the closed-loop source: a training-step
// collective (many iterations, a short compute gap so the network stays
// busy) through the workload engine.
func TrainingStepTraffic(n *network.Network) (TrafficSource, error) {
	eng, _, err := workloadEngine(n, "training_step:flits=5,gap=50")
	if err != nil {
		return nil, err
	}
	eng.Iterations = 1 << 30 // effectively unbounded: benches never finish
	return eng, nil
}

// Network exposes the benched network (pool preallocation and stats for
// the allocation harness).
func (kb *KernelBench) Network() *network.Network { return kb.net }

// Run advances the simulation the given number of cycles.
func (kb *KernelBench) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		kb.src.Tick(kb.net.Cycle())
		kb.net.Step()
	}
}
