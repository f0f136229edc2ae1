package remotectl

import (
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// attached returns a remote-control scheme attached to a fresh baseline
// network.
func attached() *Scheme {
	s := New()
	network.MustNew(topology.MustBuild(topology.BaselineConfig()), network.DefaultConfig(), s)
	return s
}

// TestSnapshotRejectsWhatSlotsCannotHold: the decoder returns an error,
// never a panic, for a section the fixed slot arrays cannot hold. Each case
// writes a crafted state of boundary 0 with the section's own encoder (then
// patches the bytes where the encoder cannot write the corruption) and
// reads it, with its packet table, into a fresh scheme.
func TestSnapshotRejectsWhatSlotsCannotHold(t *testing.T) {
	pkt := func(id uint64) *message.Packet {
		return &message.Packet{ID: id, Src: 1, VNet: message.VNetResponse, Size: message.DataPacketFlits}
	}
	live := func(b *boundary, ids ...uint64) {
		for i, id := range ids {
			b.slots[i] = slot{pkt: pkt(id), id: id, flits: []message.Flit{{Pkt: pkt(id)}}, outVC: -1}
		}
	}
	// The section opens with the requested IDs' count and IDs, then
	// boundary 0's free-slot count (a zigzag varint).
	setFree := func(free byte) func([]byte) { return func(d []byte) { d[1] = 2 * free } }
	for _, tc := range []struct {
		name  string
		state func(b *boundary)
		patch func([]byte)
		want  string // "" for a state that must restore
	}{
		{"valid", func(b *boundary) {
			b.reqQ = []request{{pkt: pkt(9), ready: 3}}
			b.granted = append(b.granted, 4, 7)
			live(b, 7)
			b.sendQ[message.VNetResponse] = append(b.sendQ[message.VNetResponse], 0)
			b.held = []heldVC{{port: 1, vc: 0}}
		}, nil, ""},
		{"more grants than slots", func(b *boundary) { b.granted = []uint64{1, 2, 3, 4, 5} }, setFree(0), "rc granted count"},
		{"free and grants miscount", func(b *boundary) { b.granted = append(b.granted, 1, 2) }, setFree(1), "free slots beside grants"},
		{"grants out of order", func(b *boundary) { b.granted = append(b.granted, 2, 1) }, nil, "grants ascending"},
		{"more live slots than slots", func(b *boundary) {
			b.granted = append(b.granted, 1, 2, 3, 4)
			live(b, 1, 2, 3, 4)
			b.sendQ[0] = append(b.sendQ[0], 0, 1, 2, 3)
			b.sendQ[1] = append(b.sendQ[1], 0)
		}, nil, "rc live slot 5"},
		{"live slot without a grant", func(b *boundary) {
			b.granted = append(b.granted, 1)
			live(b, 2)
			b.sendQ[0] = append(b.sendQ[0], 0)
		}, nil, "rc live slot 1 for packet 2"},
		{"requested ID in no queue", func(b *boundary) { b.reqQ = []request{{pkt: pkt(7)}} },
			func(d []byte) { d[1] = 8 }, "rc requested packets [8], queued [7]"},
		{"two requests from one source", func(b *boundary) { b.reqQ = []request{{pkt: pkt(7)}, {pkt: pkt(8)}} },
			nil, "already requesting"},
		{"held VC outside the router", func(b *boundary) { b.held = []heldVC{{port: topology.PortID(b.r.NumPorts()), vc: 0}} },
			nil, "rc held port"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := attached()
			tc.state(&s.boundaries[0])
			enc := snap.NewEncoder()
			if err := s.Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			enc.PacketTable()
			data := enc.Bytes()
			if tc.patch != nil {
				tc.patch(data)
			}
			dec := snap.NewDecoder(data)
			_ = attached().Snapshot(dec)
			dec.PacketTable()
			switch err := dec.Err(); {
			case tc.want == "" && err != nil:
				t.Fatalf("valid state did not restore: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("decode error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
