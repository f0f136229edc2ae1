package router

import (
	"fmt"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
)

// TestVCFIFOModel drives one VC of a standalone router through random
// ReceiveFlit (push) and PopFront (pop) calls against a slice model, for
// every depth from 1 (no ring at all) to 8, long enough for the ring to wrap
// many times. After every operation Front, FrontReady, Scan, Len and Free
// must agree with the model and the router's derived masks with a recount;
// a third of the way in the router is snapshotted and the sequence carries
// on in a restored copy.
func TestVCFIFOModel(t *testing.T) {
	const port, vi = 1, 2
	node := widestNode(t)
	for depth := 1; depth <= 8; depth++ {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{VCsPerVNet: 1, BufferDepth: depth, LinkLatency: 1}
			build := func() *Router {
				log := &eventLog{}
				r, err := New(ArchIQ, node, cfg, log, log, nil, sim.NewRNG(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := build()
			if got := len(r.VCAt(port, vi).ring); got != depth-1 {
				t.Fatalf("ring has %d slots, want BufferDepth-1 = %d", got, depth-1)
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
					w := snap.NewWriter()
					if err := r.Snapshot(w.Codec()); err != nil {
						t.Fatal(err)
					}
					w.WritePacketTable()
					rd := snap.NewReader(w.Bytes())
					r = build()
					if err := r.Snapshot(rd.Codec()); err != nil {
						t.Fatal(err)
					}
					rd.ReadPacketTable()
					if rd.Err() != nil || rd.Remaining() != 0 {
						t.Fatalf("restore: err %v, %d bytes left", rd.Err(), rd.Remaining())
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
		vc := VC{ring: make([]bufFlit, depth-1)}
		mustPanic("pop from an empty VC", func() { vc.pop() })
		for i := 0; i < depth; i++ {
			vc.push(message.Flit{Pkt: pkt, Seq: int32(i)}, 0)
		}
		mustPanic(fmt.Sprintf("push into a full depth-%d VC", depth), func() { vc.push(message.Flit{Pkt: pkt}, 0) })
	}
}
