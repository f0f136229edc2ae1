package traffic

import (
	"math"

	"uppnoc/internal/snap"
)

// SnapshotLabel implements network.SnapshotExtra.
func (g *Generator) SnapshotLabel() string { return "traffic" }

// SnapshotState implements network.SnapshotExtra over the generator's
// cursor state: the offered load, the control/data mix and every per-core
// Bernoulli stream, so a restored run draws the exact injection sequence
// the uninterrupted run would have (DESIGN.md §14).
func (g *Generator) SnapshotState(c *snap.Codec) error {
	rate, ctrl := g.Rate, g.ctrlFraction
	c.F64("traffic rate", &rate)
	c.F64("traffic ctrl fraction", &ctrl)
	if c.Decoding() && c.Err() == nil && (math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0) {
		c.Fail("traffic rate %v invalid", rate)
	}
	if c.Decoding() && c.Err() == nil && (math.IsNaN(ctrl) || ctrl < 0 || ctrl > 1) {
		c.Fail("traffic ctrl fraction %v invalid", ctrl)
	}
	n := c.Len("traffic rng count", len(g.rngs), len(g.rngs))
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(g.rngs) {
		c.Fail("traffic snapshot has %d core streams, generator has %d", n, len(g.rngs))
		return c.Err()
	}
	for i := range g.rngs {
		if c.RNG("traffic rng word", &g.rngs[i]); c.Err() != nil {
			return c.Err()
		}
	}
	if c.Decoding() {
		g.Rate, g.ctrlFraction = rate, ctrl
		g.updateProb()
	}
	return nil
}
