package router

import (
	"fmt"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// TestVCFIFOModel drives one VC of a standalone router through random
// ReceiveFlit (push) and PopFront (pop) calls against a slice model, for
// every depth from 1 (no ring at all) to 8, long enough for the ring to wrap
// many times and the VC to borrow and return a chunk many times. After
// every operation Front, FrontReady, Scan, Len and Free must agree with the
// model and the router's derived state with a recount (CheckDerived, which
// also audits the slot pool); a third of the way in the router is
// snapshotted and the sequence carries on in a restored copy.
func TestVCFIFOModel(t *testing.T) {
	const port, vi = 1, 2
	node := widestNode(t)
	for depth := 1; depth <= 8; depth++ {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{VCsPerVNet: 1, BufferDepth: depth}
			build := func() *Router {
				log := &eventLog{}
				r, err := New(ArchIQ, node, cfg, log, log, nil, sim.NewRNG(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := build()
			if vc := r.VCAt(port, vi); vc.ring != nil || vc.Free() != depth {
				t.Fatalf("empty VC: chunk %v, %d free, want no chunk and BufferDepth = %d free", vc.ring != nil, vc.Free(), depth)
			}
			g := sim.NewRNG(uint64(depth))
			var model []bufFlit
			// One long packet: PopFront never sees a tail, so the VC is never
			// released under the sequence.
			pkt := &message.Packet{ID: 1, Size: 1 << 20}
			seq := int32(0)
			check := func(step int, op string) {
				t.Helper()
				vc := r.VCAt(port, vi)
				if vc.Len() != len(model) || vc.Free() != depth-len(model) || vc.Empty() != (len(model) == 0) {
					t.Fatalf("step %d (%s): Len %d Free %d Empty %v, model holds %d of %d", step, op, vc.Len(), vc.Free(), vc.Empty(), len(model), depth)
				}
				f, ready, ok := vc.Front()
				if ok != (len(model) > 0) || ok && (f != model[0].flit || ready != model[0].ready) {
					t.Fatalf("step %d (%s): Front = %v @%d ok=%v, model %v", step, op, f, ready, ok, model)
				}
				if ok {
					if _, is := vc.FrontReady(ready - 1); is {
						t.Fatalf("step %d (%s): front ready a cycle early", step, op)
					}
					if fr, is := vc.FrontReady(ready); !is || fr != f {
						t.Fatalf("step %d (%s): front not ready at its ready cycle", step, op)
					}
				}
				i := 0
				vc.Scan(func(f message.Flit) {
					if i >= len(model) || f != model[i].flit {
						t.Fatalf("step %d (%s): Scan flit %d = %v, model %v", step, op, i, f, model)
					}
					i++
				})
				if i != len(model) {
					t.Fatalf("step %d (%s): Scan visited %d flits, model holds %d", step, op, i, len(model))
				}
				if err := r.CheckDerived(); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
			}
			const steps = 600
			for step := 0; step < steps; step++ {
				if step == steps/3 {
					enc := snap.NewEncoder()
					if err := r.Snapshot(enc); err != nil {
						t.Fatal(err)
					}
					enc.PacketTable()
					dec := snap.NewDecoder(enc.Bytes())
					r = build()
					if err := r.Snapshot(dec); err != nil {
						t.Fatal(err)
					}
					dec.PacketTable()
					if dec.Err() != nil || dec.Remaining() != 0 {
						t.Fatalf("restore: err %v, %d bytes left", dec.Err(), dec.Remaining())
					}
					// The restored side holds a copy of the packet.
					if len(model) > 0 {
						pkt = r.VCAt(port, vi).front.flit.Pkt
						for i := range model {
							model[i].flit.Pkt = pkt
						}
					}
					check(step, "restore")
				}
				// Lean toward pushing so the VC spends time full as well as empty.
				if push := g.Intn(5) < 3; push && len(model) < depth {
					f, cycle := message.Flit{Pkt: pkt, Seq: seq}, sim.Cycle(step)
					seq++
					r.ReceiveFlit(port, vi, f, cycle)
					model = append(model, bufFlit{flit: f, ready: cycle + 1})
					check(step, "push")
				} else if len(model) > 0 {
					if f := r.PopFront(port, vi, sim.Cycle(step)); f != model[0].flit {
						t.Fatalf("step %d: PopFront = %v, model front %v", step, f, model[0].flit)
					}
					model = model[1:]
					check(step, "pop")
				}
			}
		})
	}
}

// TestVCOverflowAndUnderflowPanic: the credit protocol's two loud failures
// stay where they were — a push into a full VC and a pop from an empty one.
func TestVCOverflowAndUnderflowPanic(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	pkt := &message.Packet{ID: 1, Size: 8}
	for _, depth := range []int{1, 2, 4} {
		vc, pl := VC{depth: uint16(depth)}, newSlotPool(depth-1, 1, nil)
		mustPanic("pop from an empty VC", func() { vc.pop(&pl) })
		for i := 0; i < depth; i++ {
			vc.push(message.Flit{Pkt: pkt, Seq: int32(i)}, 0, &pl)
		}
		mustPanic(fmt.Sprintf("push into a full depth-%d VC", depth), func() { vc.push(message.Flit{Pkt: pkt}, 0, &pl) })
	}
}

// TestSlotPoolGrowsAndDrains fills every VC of every port of a standalone
// router to BufferDepth at once — far more multi-flit VCs than the one chunk
// its pool starts with, so the pool must grow — then drains them all. Every
// VC must give its flits back in FIFO order and return every credit
// upstream, and every chunk must be back in the pool.
func TestSlotPoolGrowsAndDrains(t *testing.T) {
	node := widestNode(t)
	for _, depth := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{VCsPerVNet: 2, BufferDepth: depth}
			credits := &creditTally{}
			r, err := New(ArchIQ, node, cfg, credits, &eventLog{}, nil, sim.NewRNG(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			start := r.pool.chunks
			nvc := cfg.NumVCs()
			pkts := make([]*message.Packet, r.NumPorts()*nvc)
			for i := range pkts {
				pkts[i] = &message.Packet{ID: uint64(i + 1), Size: depth}
			}
			for seq := range depth {
				for i, p := range pkts {
					r.ReceiveFlit(topology.PortID(i/nvc), int8(i%nvc), message.Flit{Pkt: p, Seq: int32(seq)}, 0)
				}
				if err := r.CheckDerived(); err != nil {
					t.Fatalf("after filling to %d: %v", seq+1, err)
				}
			}
			if lent := len(pkts); r.pool.chunks < lent || start >= lent {
				t.Fatalf("pool started with %d chunks and owns %d with %d lent", start, r.pool.chunks, lent)
			}
			for seq := range depth {
				for i, p := range pkts {
					if f := r.PopFront(topology.PortID(i/nvc), i%nvc, 1); f.Pkt != p || f.Seq != int32(seq) {
						t.Fatalf("in[%d] vc%d pop %d: pkt%d flit %d, want pkt%d flit %d", i/nvc, i%nvc, seq, f.Pkt.ID, f.Seq, p.ID, seq)
					}
				}
				if err := r.CheckDerived(); err != nil {
					t.Fatalf("after draining %d: %v", seq+1, err)
				}
			}
			if !r.Idle() || len(r.pool.free) != r.pool.chunks {
				t.Fatalf("drained router: idle %v, %d of %d chunks free", r.Idle(), len(r.pool.free), r.pool.chunks)
			}
			for i := range pkts {
				pt := &r.ports[i/nvc]
				if n := credits.slots[creditKey{pt.nb, pt.nbPort, int8(i % nvc)}]; n != depth {
					t.Fatalf("in[%d] vc%d returned %d credits, want %d", i/nvc, i%nvc, n, depth)
				}
			}
		})
	}
}

// creditTally is an EventSink that counts the buffer slots returned to
// each upstream output VC.
type creditTally struct {
	slots map[creditKey]int
}

type creditKey struct {
	to   topology.NodeID
	port topology.PortID
	vc   int8
}

func (*creditTally) DeliverFlit(topology.NodeID, topology.PortID, int8, message.Flit, sim.Cycle) {}

func (c *creditTally) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, _ bool, _ sim.Cycle) {
	if c.slots == nil {
		c.slots = map[creditKey]int{}
	}
	c.slots[creditKey{to, port, vc}] += delta
}
