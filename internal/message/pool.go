package message

// Pool is a packet freelist. The steady-state simulation loop allocates
// one Packet per injected message; recycling them through a per-Network
// pool removes that allocation (and the GC pressure it creates exactly
// where saturation sweeps spend their time).
//
// Ownership protocol:
//   - Get hands out a packet zeroed except for its generation counter.
//   - exactly one component releases it — the destination NI, after the
//     PE consumed the reassembled message (stats were already recorded
//     at tail ejection).
//   - Put bumps the generation, so any holder that kept a pointer past
//     the release can detect staleness by comparing a snapshotted
//     Generation() (UPP's popups do).
//
// Put ignores packets the pool does not own (built with &Packet{}), so
// tests and tools that hand-construct packets and inspect them after a
// run are unaffected by pooling. Double release panics.
//
// A Pool is not safe for concurrent use; each Network owns one, and
// parallel sweeps build one Network per goroutine.
type Pool struct {
	free []*Packet

	// Stats counts pool traffic: Gets is total Get calls, Reuses the
	// subset served from the freelist, Puts total releases. Live
	// outstanding packets = Gets - Puts (after Preallocate'd spares are
	// excluded, which never count in either).
	Stats PoolStats
}

// PoolStats are allocation counters for observability and invariant
// checks.
type PoolStats struct {
	Gets   uint64
	Reuses uint64
	Puts   uint64
}

// Live returns the number of pool-owned packets currently handed out.
func (s PoolStats) Live() uint64 { return s.Gets - s.Puts }

// Get returns a zeroed pool-owned packet, reusing a released one when
// available. The generation counter survives reuse (it is the staleness
// signal); every other field is zero, exactly like a fresh &Packet{}.
func (pl *Pool) Get() *Packet {
	pl.Stats.Gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.Stats.Reuses++
		*p = Packet{gen: p.gen, pooled: true}
		return p
	}
	return &Packet{pooled: true}
}

// Put releases a packet back to the freelist. Foreign (non-pooled)
// packets are ignored; releasing the same packet twice panics.
func (pl *Pool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if p.released {
		panic("message: double release of pooled packet")
	}
	p.released = true
	p.gen++
	pl.Stats.Puts++
	pl.free = append(pl.free, p)
}

// Preallocate grows the freelist by n spare packets so a measurement
// window never observes a fresh heap allocation. Spares do not count in
// Stats (they were never handed out).
func (pl *Pool) Preallocate(n int) {
	if cap(pl.free)-len(pl.free) < n {
		grown := make([]*Packet, len(pl.free), len(pl.free)+n)
		copy(grown, pl.free)
		pl.free = grown
	}
	for i := 0; i < n; i++ {
		pl.free = append(pl.free, &Packet{pooled: true, released: true})
	}
}

// FreeLen returns the current freelist depth.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// Check validates freelist invariants: every entry is non-nil, pooled,
// flagged released, and appears exactly once. Soak tests call it after
// drains.
func (pl *Pool) Check() error {
	seen := make(map[*Packet]bool, len(pl.free))
	for i, p := range pl.free {
		switch {
		case p == nil:
			return errPool("nil entry", i)
		case !p.pooled:
			return errPool("foreign packet in freelist", i)
		case !p.released:
			return errPool("freelist entry not flagged released", i)
		case seen[p]:
			return errPool("duplicate freelist entry", i)
		}
		seen[p] = true
	}
	return nil
}

type poolError struct {
	msg string
	idx int
}

func (e poolError) Error() string { return "message: pool: " + e.msg }

func errPool(msg string, idx int) error { return poolError{msg: msg, idx: idx} }
