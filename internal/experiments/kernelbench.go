package experiments

import (
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/traffic"
)

// KernelBench is a simulation prepared for cycle-kernel measurement: Run
// advances whole cycles, so a benchmark that maps b.N to cycles reads
// ns/op directly as ns per simulated cycle. The BenchmarkKernel*
// benchmarks, cmd/profile and the zero-allocation pins share it so they
// all measure the same loop.
type KernelBench struct {
	src TrafficSource
	net *network.Network
}

// NewKernelBench assembles spec's machine and attaches the traffic source
// that source builds on it. No cycle is simulated: callers Run their own
// warmup, long enough that the measured window sees steady-state occupancy
// rather than a cold, empty network (which would flatter the active-set
// kernel).
func NewKernelBench(spec RunSpec, source func(*Sim) (TrafficSource, error)) (*KernelBench, error) {
	s, err := Assemble(spec)
	if err != nil {
		return nil, err
	}
	src, err := source(s)
	if err != nil {
		return nil, err
	}
	return &KernelBench{src: src, net: s.Net}, nil
}

// UniformTraffic is the open-loop source of the kernel benchmarks:
// uniform random traffic at the given offered load.
func UniformTraffic(rate float64) func(*Sim) (TrafficSource, error) {
	return func(s *Sim) (TrafficSource, error) {
		return s.Generator(traffic.UniformRandom{}, rate, 99), nil
	}
}

// TrainingStepTraffic is the closed-loop source: a training-step
// collective (many iterations, a short compute gap so the network stays
// busy) through the workload engine.
func TrainingStepTraffic(s *Sim) (TrafficSource, error) {
	eng, _, err := workloadEngine(s.Net, "training_step:flits=5,gap=50")
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
	Drive(kb.net, kb.src, kb.net.Cycle()+sim.Cycle(cycles), nil)
}
