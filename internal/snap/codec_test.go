package snap

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// record has one field of every kind a section describes.
type record struct {
	id    uint64
	at    int64
	node  topology.NodeID
	port  topology.PortID
	stage uint8
	epoch uint32
	on    bool
	rate  float64
	label string
	pkt   *message.Packet
	flit  message.Flit
	hops  []int16
}

// walk is the one description of a record, as the sections are written.
func (r *record) walk(c *Codec) {
	c.U64("id", &r.id)
	c.I64("at", &r.at)
	Int(c, "node", &r.node, -1, 99)
	Int(c, "port", &r.port, 0, 7)
	Uint(c, "stage", &r.stage, 2)
	Uint(c, "epoch", &r.epoch, math.MaxUint32)
	c.Bool("on", &r.on)
	c.F64("rate", &r.rate)
	c.String("label", &r.label, 8)
	c.Packet(&r.pkt)
	c.Flit(&r.flit)
	Slice(c, "hops", &r.hops, 4, func(h *int16) { Int(c, "hop", h, -3, 3) })
}

func sampleRecord() record {
	p := samplePacket(5)
	return record{id: 1 << 40, at: -9, node: 99, port: 7, stage: 2, epoch: math.MaxUint32, on: true,
		rate: 0.25, label: "reconfig", pkt: p, flit: message.Flit{Pkt: p, Seq: 3}, hops: []int16{-3, 0, 3}}
}

// TestCodecRoundTrip: one description, walked to encode and walked to
// decode, reproduces every kind of field; encoding leaves the source
// untouched and decoding replaces what the destination held.
func TestCodecRoundTrip(t *testing.T) {
	src, before := sampleRecord(), sampleRecord()
	before.pkt, before.flit.Pkt = src.pkt, src.pkt
	enc := NewEncoder()
	src.walk(enc)
	enc.PacketTable()
	if enc.Decoding() || enc.Err() != nil {
		t.Fatalf("encoder: Decoding %v, Err %v", enc.Decoding(), enc.Err())
	}
	if !reflect.DeepEqual(src, before) {
		t.Fatalf("encoding mutated its source:\n%+v\n%+v", src, before)
	}

	dst := record{id: 7, label: "stale", hops: []int16{1, 1, 1, 1}}
	dec := NewDecoder(enc.Bytes())
	dst.walk(dec)
	dec.PacketTable()
	if !dec.Decoding() || dec.Err() != nil || dec.Remaining() != 0 {
		t.Fatalf("decoder: Decoding %v, Err %v, %d bytes left", dec.Decoding(), dec.Err(), dec.Remaining())
	}
	if dst.pkt == nil || dst.pkt == src.pkt || dst.flit.Pkt != dst.pkt {
		t.Fatal("packet identity: the decoded flit and pointer must share one new packet")
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("decoded record differs:\nwrote %+v\nread  %+v", src, dst)
	}
}

// TestCodecBoundsAreOnTheField: each bounded field refuses a value
// outside its line's bounds, naming the field and storing nothing —
// including a value that a conversion to the field's type would have
// truncated into range (256 in a uint8 is 0).
func TestCodecBoundsAreOnTheField(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(w *Codec)
		read  func(c *Codec, dst *record)
		want  string
	}{
		{"int above max", func(w *Codec) { putI(w, 100) },
			func(c *Codec, dst *record) { Int(c, "node", &dst.node, -1, 99) }, "node = 100 outside [-1, 99]"},
		{"int below min", func(w *Codec) { putI(w, -2) },
			func(c *Codec, dst *record) { Int(c, "node", &dst.node, -1, 99) }, "node = -2 outside [-1, 99]"},
		{"int8 field, value wider than the type", func(w *Codec) { putI(w, 256) },
			func(c *Codec, dst *record) { Int(c, "port", &dst.port, 0, 7) }, "port = 256 outside [0, 7]"},
		{"uint8 field, value wider than the type", func(w *Codec) { putU(w, 256) },
			func(c *Codec, dst *record) { Uint(c, "stage", &dst.stage, 2) }, "stage = 256 exceeds limit 2"},
		{"uint32 field, value wider than the type", func(w *Codec) { putU(w, 1<<32) },
			func(c *Codec, dst *record) { Uint(c, "epoch", &dst.epoch, math.MaxUint32) }, "epoch = 4294967296 exceeds limit 4294967295"},
		{"slice longer than max", func(w *Codec) { putU(w, 5) },
			func(c *Codec, dst *record) {
				Slice(c, "hops", &dst.hops, 4, func(h *int16) { Int(c, "hop", h, -3, 3) })
			}, "hops = 5 exceeds limit 4"},
		{"slice element out of range", func(w *Codec) { putU(w, 1); putI(w, 4) },
			func(c *Codec, dst *record) {
				Slice(c, "hops", &dst.hops, 4, func(h *int16) { Int(c, "hop", h, -3, 3) })
			}, "hop = 4 outside [-3, 3]"},
		{"string longer than max", func(w *Codec) { s := "reconfig!"; w.String("label", &s, 0) },
			func(c *Codec, dst *record) { c.String("label", &dst.label, 8) }, "label = 9 exceeds limit 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewEncoder()
			tc.write(w)
			var dst record
			c := NewDecoder(w.Bytes())
			tc.read(c, &dst)
			if c.Err() == nil || !strings.Contains(c.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", c.Err(), tc.want)
			}
			if dst.node != 0 || dst.port != 0 || dst.stage != 0 || dst.epoch != 0 || dst.label != "" || slices.Max(append(dst.hops, 0)) != 0 {
				t.Fatalf("a rejected value was stored: %+v", dst)
			}
		})
	}
}

// TestCodecUntrustedLengthsDriveNoWork: after the first error a decoded
// length is 0, and a slice stops at the first element that fails instead
// of walking its claimed count.
func TestCodecUntrustedLengthsDriveNoWork(t *testing.T) {
	w := NewEncoder()
	putU(w, 1<<20) // claims a million elements, supplies two
	putI(w, 1)
	putI(w, 2)
	c := NewDecoder(w.Bytes())
	var got []int
	calls := 0
	Slice(c, "items", &got, 1<<20, func(v *int) { calls++; Int(c, "item", v, 0, 9) })
	if c.Err() == nil || calls != 3 {
		t.Fatalf("err %v after %d element walks, want a truncation error on the third", c.Err(), calls)
	}
	if cap(got) > maxPrealloc {
		t.Fatalf("slice preallocated to %d from an unvalidated prefix", cap(got))
	}
	if n := c.Len("later count", 0, 1<<20); n != 0 {
		t.Fatalf("a length decoded after the error is %d, want 0", n)
	}
	c.Fail("a later failure")
	if !strings.Contains(c.Err().Error(), "item") {
		t.Fatalf("first error replaced: %v", c.Err())
	}
}

// TestCodecRNG: the four state words round-trip, and a truncated state is
// not installed.
func TestCodecRNG(t *testing.T) {
	src := sim.NewRNG(42)
	src.Uint64()
	w := NewEncoder()
	w.RNG("rng", src)
	dst := sim.NewRNG(1)
	c := NewDecoder(w.Bytes())
	c.RNG("rng", dst)
	if c.Err() != nil || dst.State() != src.State() {
		t.Fatalf("err %v, state %v, want %v", c.Err(), dst.State(), src.State())
	}
	short := sim.NewRNG(1)
	keep := short.State()
	c = NewDecoder(w.Bytes()[:len(w.Bytes())-1])
	c.RNG("rng", short)
	if c.Err() == nil || short.State() != keep {
		t.Fatalf("err %v; a truncated state was installed: %v", c.Err(), short.State())
	}
}
