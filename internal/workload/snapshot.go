package workload

import (
	"math"

	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
)

// SnapshotLabel implements network.SnapshotExtra.
func (e *Engine) SnapshotLabel() string { return "workload" }

// SnapshotState implements network.SnapshotExtra over the engine's
// per-rank state machines and iteration cursors, so a restored
// closed-loop run resumes mid-program (DESIGN.md §14). The program itself
// is immutable and must match on both sides (rank count and op shapes are
// validated structurally).
func (e *Engine) SnapshotState(c *snap.Codec) error {
	snap.Int(c, "workload iterations", &e.Iterations, 1, math.MaxInt32)
	nr := c.Len("workload rank count", len(e.pc), len(e.pc))
	if c.Err() != nil {
		return c.Err()
	}
	if nr != len(e.pc) {
		c.Fail("workload snapshot has %d ranks, program has %d", nr, len(e.pc))
		return c.Err()
	}
	for i := range e.pc {
		snap.Int(c, "workload pc", &e.pc[i], 0, int64(len(e.prog.Ops[i])))
		snap.Int(c, "workload compute left", &e.computeLeft[i], 0, math.MaxInt32)
		c.Bool("workload compute set", &e.computeSet[i])
	}
	nt := c.Len("workload tag count", len(e.received), len(e.received))
	if c.Err() != nil {
		return c.Err()
	}
	if nt != len(e.received) {
		c.Fail("workload snapshot has %d tags, program has %d", nt, len(e.received))
		return c.Err()
	}
	for i := range e.received {
		c.Bool("workload received", &e.received[i])
	}
	snap.Int(c, "workload done ranks", &e.doneRanks, 0, int64(nr))
	snap.Int(c, "workload iter", &e.iter, 0, math.MaxInt32)
	c.Bool("workload finished", &e.finished)
	c.I64("workload finish cycle", &e.finishCycle)
	snap.Slice(c, "workload iter cycles", &e.iterCycles, math.MaxInt32, func(at *sim.Cycle) {
		c.I64("workload iter cycle", at)
	})
	c.U64("workload delivered", &e.MessagesDelivered)
	return c.Err()
}
