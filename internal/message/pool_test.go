package message

import "testing"

func TestPoolGetZeroedAndPooled(t *testing.T) {
	var pl Pool
	p := pl.Get()
	if !p.Pooled() || p.Released() {
		t.Fatalf("fresh Get: pooled=%v released=%v; want pooled, not released", p.Pooled(), p.Released())
	}
	p.ID = 7
	p.Size = 5
	p.DownPhase = true
	gen := p.Generation()
	pl.Put(p)
	if !p.Released() {
		t.Fatal("Put did not flag the packet released")
	}
	if p.Generation() != gen+1 {
		t.Fatalf("Put bumped generation to %d; want %d", p.Generation(), gen+1)
	}
	q := pl.Get()
	if q != p {
		t.Fatal("Get did not reuse the released packet")
	}
	if q.ID != 0 || q.Size != 0 || q.DownPhase {
		t.Fatalf("reused packet not zeroed: %+v", q)
	}
	if q.Generation() != gen+1 {
		t.Fatalf("reuse reset the generation to %d; want it preserved at %d", q.Generation(), gen+1)
	}
	if q.Released() || !q.Pooled() {
		t.Fatalf("reused packet flags wrong: released=%v pooled=%v", q.Released(), q.Pooled())
	}
}

func TestPoolIgnoresForeignPackets(t *testing.T) {
	var pl Pool
	p := &Packet{ID: 1} // hand-built, as tests and examples do
	pl.Put(p)
	if pl.FreeLen() != 0 || pl.Stats.Puts != 0 {
		t.Fatalf("foreign packet entered the freelist (len %d, puts %d)", pl.FreeLen(), pl.Stats.Puts)
	}
	if p.Released() {
		t.Fatal("foreign packet flagged released")
	}
	pl.Put(nil) // must be a no-op, not a crash
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	pl.Put(p)
}

func TestPoolStatsAndPreallocate(t *testing.T) {
	var pl Pool
	pl.Preallocate(8)
	if pl.FreeLen() != 8 {
		t.Fatalf("Preallocate(8): freelist %d", pl.FreeLen())
	}
	if pl.Stats.Gets != 0 || pl.Stats.Puts != 0 {
		t.Fatalf("Preallocate counted in stats: %+v", pl.Stats)
	}
	a, b := pl.Get(), pl.Get()
	if pl.Stats.Gets != 2 || pl.Stats.Reuses != 2 {
		t.Fatalf("preallocated packets not reused: %+v", pl.Stats)
	}
	pl.Put(a)
	if got := pl.Stats.Live(); got != 1 {
		t.Fatalf("Live() = %d; want 1", got)
	}
	pl.Put(b)
	if err := pl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}
