package experiments

import (
	"bytes"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
)

// FuzzSnapshotDecode feeds corrupted, truncated and mutated snapshot
// bytes to the UPWS decoder. The contract under test: ReadSnapshot on a
// freshly-built environment returns a structured error (or nil for the
// pristine bytes) and never panics — the decoder's bounds checks plus its
// recover backstop must absorb anything the fuzzer constructs. The input
// names its environment, so every section has a decoder the fuzzer
// reaches: 0 is a loaded UPP run, 1 remote control, 2 UPP under a
// collective workload engine, 3 UPP with a reconfiguration engine. The
// seed corpus is a real mid-measurement checkpoint of environment 0,
// damaged copies of it, the same state with one wheel event its target
// router cannot take (TestSnapshotRejectsUndeliverableEvents' cases), and
// one loaded snapshot of each other environment (the reconfiguration one
// taken mid-transition).
func FuzzSnapshotDecode(f *testing.F) {
	spec := snapSpec(SchemeUPP, "iq")
	envs := []RunSpec{spec, snapSpec(SchemeRemoteControl, "iq"), snapWorkloadSpec(), snapReconfigSpec()}
	var buf bytes.Buffer
	if _, err := RunCheckpointed(spec, 700, &buf); err != nil {
		f.Fatal(err)
	}
	_, snapshot, err := splitCheckpoint(buf.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), snapshot)
	f.Add(uint8(0), snapshot[:len(snapshot)/2])
	f.Add(uint8(0), snapshot[:8])
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte("UPWS"))
	flipped := append([]byte(nil), snapshot...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(uint8(0), flipped)
	for _, seed := range []struct {
		env uint8
		at  int64
	}{{1, 700}, {2, 300}, {3, 410}} {
		_, loaded := loadedSnapshot(f, envs[seed.env], seed.at)
		f.Add(seed.env, loaded)
	}
	pkt := &message.Packet{ID: 1 << 40, Size: 1}
	for _, schedule := range []func(n *network.Network){
		func(n *network.Network) { n.DeliverCredit(-1, 1, 0, 1, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverCredit(5, 31, 0, 1, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverCredit(5, -1, 0, 1, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverCredit(5, 1, 3, 1, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverCredit(5, 1, -1, 1, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverCredit(5, 1, 0, 2, false, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverFlit(5, 1, 3, message.Flit{Pkt: pkt}, n.Cycle()+1) },
		func(n *network.Network) { n.DeliverFlit(5, 1, 0, message.Flit{}, n.Cycle()+1) },
	} {
		n, g, err := BuildRun(spec)
		if err != nil {
			f.Fatal(err)
		}
		if err := n.ReadSnapshot(snapshot, g); err != nil {
			f.Fatal(err)
		}
		schedule(n)
		var crafted bytes.Buffer
		if err := n.WriteSnapshot(&crafted, g); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), crafted.Bytes())
	}

	f.Fuzz(func(t *testing.T, env uint8, data []byte) {
		e := assembleSnapEnv(t, envs[int(env)%len(envs)])
		// Error or nil are both fine; a panic escaping fails the fuzz.
		_ = e.net.ReadSnapshot(data, e.extras...)
	})
}

// FuzzCheckpointSplit fuzzes the UPWR container framing: arbitrary bytes
// must either split cleanly or produce an error, never panic or return a
// spec/snapshot slice that strays outside the input.
func FuzzCheckpointSplit(f *testing.F) {
	spec := snapSpec(SchemeUPP, "iq")
	var buf bytes.Buffer
	if _, err := RunCheckpointed(spec, 500, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("UPWR"))
	f.Add([]byte("UPWR\xff\xff\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		specBytes, snapshot, err := splitCheckpoint(data)
		if err != nil {
			return
		}
		if len(specBytes)+len(snapshot) > len(data) {
			t.Fatalf("split returned %d+%d bytes from a %d-byte input",
				len(specBytes), len(snapshot), len(data))
		}
	})
}
