package message_test

import (
	"strings"
	"testing"

	"uppnoc/internal/message"
)

func TestFlitHeadTail(t *testing.T) {
	p := &message.Packet{Size: 5}
	for seq := int32(0); seq < 5; seq++ {
		f := message.Flit{Pkt: p, Seq: seq}
		if f.IsHead() != (seq == 0) {
			t.Fatalf("seq %d head", seq)
		}
		if f.IsTail() != (seq == 4) {
			t.Fatalf("seq %d tail", seq)
		}
	}
	single := message.Flit{Pkt: &message.Packet{Size: 1}}
	if !single.IsHead() || !single.IsTail() {
		t.Fatal("single-flit packet must be head and tail")
	}
}

// TestSignalEncodingFitsPaperBudget pins Fig. 4's widths: an 18-bit
// req/stop on the paper's 60- and 208-node systems at 1 and 4 VCs per
// VNet and a 9-bit ack, and the req/stop's destination and input-VC
// fields widening past 256 nodes and 16 VCs per port.
func TestSignalEncodingFitsPaperBudget(t *testing.T) {
	if message.AckBits != 9 {
		t.Fatalf("ack width %d, paper 9", message.AckBits)
	}
	for _, tc := range []struct{ nodes, vcs, want int }{
		{60, 1 * message.NumVNets, 18},
		{60, 4 * message.NumVNets, 18},
		{208, 1 * message.NumVNets, 18},
		{208, 4 * message.NumVNets, 18},
		{256, 16, 18},
		{257, 16, 19},
		{3072, 12, 22},
		{12288, 12, 24},
		{60, 17, 19},
		{60, 6 * message.NumVNets, 19},
		{60, 48, 20},
		{12288, 48, 26},
	} {
		got := message.ReqStopBits(tc.nodes, tc.vcs)
		if got != tc.want {
			t.Errorf("ReqStopBits(%d nodes, %d VCs) = %d, want %d", tc.nodes, tc.vcs, got, tc.want)
		}
		if got > message.SignalBufferBits {
			t.Errorf("ReqStopBits(%d nodes, %d VCs) = %d overflows the %d-bit buffer", tc.nodes, tc.vcs, got, message.SignalBufferBits)
		}
	}
}

// TestStringMethods pins the human-readable formats used in traces and
// deadlock certificates.
func TestStringMethods(t *testing.T) {
	if got := message.VNetRequest.String(); got != "req" {
		t.Fatalf("VNet string %q", got)
	}
	if got := message.VNet(9).String(); got != "vnet(9)" {
		t.Fatalf("unknown VNet string %q", got)
	}
	p := &message.Packet{ID: 7, Size: 5, VNet: message.VNetResponse, Src: 1, Dst: 2}
	head := message.Flit{Pkt: p, Seq: 0}
	if s := head.String(); !containsAll(s, "pkt7", "head", "resp", "1->2") {
		t.Fatalf("head flit string %q", s)
	}
	tail := message.Flit{Pkt: p, Seq: 4}
	if s := tail.String(); !containsAll(s, "tail") {
		t.Fatalf("tail flit string %q", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
