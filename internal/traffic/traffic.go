// Package traffic provides the synthetic workloads of the evaluation
// (Table II): uniform random, bit complement, bit rotation and transpose
// patterns over the system's cores, injected as a Bernoulli process with a
// mix of 1-flit control and 5-flit data packets.
package traffic

import (
	"fmt"
	"math/bits"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Pattern maps a source core index to a destination core index.
type Pattern interface {
	Name() string
	// Dest returns the destination core index for a packet from src among
	// n cores. It may return src, in which case the generator skips the
	// injection (self-traffic does not enter the network).
	Dest(src, n int, rng *sim.RNG) int
}

// UniformRandom sends each packet to a uniformly random core.
type UniformRandom struct{}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform_random" }

// Dest implements Pattern.
func (UniformRandom) Dest(src, n int, rng *sim.RNG) int { return rng.Intn(n) }

// BitComplement sends core s to core ~s (mod n). Requires n to be a power
// of two.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit_complement" }

// Dest implements Pattern.
func (BitComplement) Dest(src, n int, _ *sim.RNG) int { return (n - 1) ^ src }

// BitRotation rotates the source index left by one bit.
type BitRotation struct{}

// Name implements Pattern.
func (BitRotation) Name() string { return "bit_rotation" }

// Dest implements Pattern.
func (BitRotation) Dest(src, n int, _ *sim.RNG) int {
	b := uint(bits.Len(uint(n - 1)))
	return int((uint(src)<<1 | uint(src)>>(b-1)) & uint(n-1))
}

// Transpose swaps the high and low halves of the index bits — the classic
// matrix-transpose pattern.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(src, n int, _ *sim.RNG) int {
	b := uint(bits.Len(uint(n - 1)))
	half := b / 2
	lo := uint(src) & (1<<half - 1)
	hi := uint(src) >> half
	return int((lo<<(b-half) | hi) & uint(n-1))
}

// Patterns returns the four synthetic patterns of Fig. 7 in paper order.
func Patterns() []Pattern {
	return []Pattern{UniformRandom{}, BitComplement{}, BitRotation{}, Transpose{}}
}

// PatternByName looks a pattern up by its Name.
func PatternByName(name string) (Pattern, error) {
	for _, p := range Patterns() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// Generator injects synthetic traffic into a network.
type Generator struct {
	net     *network.Network
	pattern Pattern
	cores   []topology.NodeID
	// rngs holds every core's stream by value, in one array the tick
	// walks front to back.
	rngs []sim.RNG

	// Rate is the offered load in flits/cycle/node.
	Rate float64
	// ctrlFraction is the fraction of packets that are 1-flit control
	// packets; the rest are 5-flit data packets (Table II's mix unless
	// SetCtrlFraction changed it). The injection threshold is derived from
	// it, so only SetCtrlFraction and a restore write it.
	ctrlFraction float64

	// CoreAlive, when set, gates injection on both endpoints' compute
	// being alive (the reconfiguration engine's chiplet fail-stop): a
	// packet whose source or destination core is dead is not
	// materialized. The RNG draws still happen, so the surviving cores'
	// traffic streams are identical with and without deaths.
	CoreAlive func(topology.NodeID) bool

	// inject is a core's per-cycle chance of starting a packet, as the
	// integer compare the tick makes on each core's draw.
	inject sim.Threshold
}

// NewGenerator builds a generator for net using pattern at the given
// offered load (flits/cycle/node).
func NewGenerator(net *network.Network, pattern Pattern, rate float64, seed uint64) *Generator {
	g := &Generator{
		net:          net,
		pattern:      pattern,
		cores:        net.Topo.Cores(),
		Rate:         rate,
		ctrlFraction: 0.5,
	}
	master := sim.NewRNG(seed)
	g.rngs = make([]sim.RNG, len(g.cores))
	for i := range g.rngs {
		g.rngs[i] = *master.Split(uint64(i))
	}
	g.updateProb()
	return g
}

func (g *Generator) updateProb() {
	avgFlits := g.ctrlFraction*float64(message.ControlPacketFlits) +
		(1-g.ctrlFraction)*float64(message.DataPacketFlits)
	g.inject = sim.NewThreshold(g.Rate / avgFlits)
}

// SetRate changes the offered load.
func (g *Generator) SetRate(rate float64) {
	g.Rate = rate
	g.updateProb()
}

// SetCtrlFraction changes the share of packets that are 1-flit control
// packets, keeping the offered load in flits.
func (g *Generator) SetCtrlFraction(f float64) {
	g.ctrlFraction = f
	g.updateProb()
}

// Tick injects this cycle's packets. Call once per cycle before
// Network.Step.
func (g *Generator) Tick(cycle sim.Cycle) {
	n := len(g.cores)
	for i, src := range g.cores {
		rng := &g.rngs[i]
		if !rng.Hit(g.inject) {
			continue
		}
		d := g.pattern.Dest(i, n, rng)
		if d >= n {
			// Bit patterns are defined over power-of-two populations; on
			// other sizes (heterogeneous systems) out-of-range images are
			// folded back rather than crashing the run.
			d %= n
		}
		if d == i {
			continue
		}
		ctrl := rng.Bernoulli(g.ctrlFraction)
		reqVNet := ctrl && rng.Bernoulli(0.5)
		if g.CoreAlive != nil && (!g.CoreAlive(src) || !g.CoreAlive(g.cores[d])) {
			continue
		}
		// Recycled from the network's pool: the destination NI releases
		// the packet once its PE consumes it.
		p := g.net.AllocPacket()
		p.Src = src
		p.Dst = g.cores[d]
		if ctrl {
			p.Size = message.ControlPacketFlits
			p.Class = message.ClassSyntheticCtrl
			// Control packets ride the request or forward VNets.
			if reqVNet {
				p.VNet = message.VNetRequest
			} else {
				p.VNet = message.VNetForward
			}
		} else {
			p.Size = message.DataPacketFlits
			p.Class = message.ClassSyntheticData
			p.VNet = message.VNetResponse
		}
		g.net.NI(src).Enqueue(p, cycle)
	}
}

// Run drives the network for the given number of cycles with injection.
func (g *Generator) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		g.Tick(g.net.Cycle())
		g.net.Step()
	}
}
