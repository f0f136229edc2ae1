package snap

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"uppnoc/internal/message"
)

// The helpers below walk a bare value through a local, so a case can
// write a value or read one back in a single call.
func putU(c *Codec, v uint64) { c.U64("u", &v) }
func putI(c *Codec, v int64)  { c.I64("v", &v) }
func getU(c *Codec, what string) (v uint64) {
	c.U64(what, &v)
	return v
}
func getI(c *Codec, what string) (v int64) {
	c.I64(what, &v)
	return v
}
func getPacket(c *Codec) (p *message.Packet) {
	c.Packet(&p)
	return p
}
func getFlit(c *Codec) (f message.Flit) {
	c.Flit(&f)
	return f
}

// TestPrimitiveRoundTrip writes every scalar primitive at its edge values
// and reads the stream back: same values, in order, nothing left over.
func TestPrimitiveRoundTrip(t *testing.T) {
	type step struct {
		name  string
		write func(c *Codec)
		read  func(c *Codec) any
		want  any
	}
	var steps []step
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64} {
		steps = append(steps, step{"uvarint",
			func(c *Codec) { putU(c, v) },
			func(c *Codec) any { return getU(c, "u") }, v})
	}
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		steps = append(steps, step{"varint",
			func(c *Codec) { putI(c, v) },
			func(c *Codec) any { return getI(c, "v") }, v})
	}
	for _, v := range []int{0, -7, 1 << 20} {
		steps = append(steps, step{"int",
			func(c *Codec) { putI(c, int64(v)) },
			func(c *Codec) any { var x int; Int(c, "i", &x, -7, 1<<20); return x }, v})
	}
	for _, v := range []int{0, 9} {
		steps = append(steps, step{"len",
			func(c *Codec) { putU(c, uint64(v)) },
			func(c *Codec) any { return c.Len("n", 0, 9) }, v})
	}
	for _, v := range []bool{true, false} {
		steps = append(steps, step{"bool",
			func(c *Codec) { c.Bool("b", &v) },
			func(c *Codec) any { var x bool; c.Bool("b", &x); return x }, v})
	}
	for _, v := range []float64{0, -0.5, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		steps = append(steps, step{"f64",
			func(c *Codec) { c.F64("f", &v) },
			func(c *Codec) any { var x float64; c.F64("f", &x); return x }, v})
	}
	for _, v := range []string{"", "UPWS", strings.Repeat("x", 300)} {
		steps = append(steps, step{"string",
			func(c *Codec) { c.String("s", &v, 300) },
			func(c *Codec) any { var x string; c.String("s", &x, 300); return x }, v})
	}

	w := NewEncoder()
	for _, s := range steps {
		s.write(w)
	}
	nan := math.NaN() // NaN != NaN: compared by bit pattern below
	w.F64("nan", &nan)
	r := NewDecoder(w.Bytes())
	for i, s := range steps {
		if got := s.read(r); got != s.want {
			t.Fatalf("step %d (%s): read %v, want %v", i, s.name, got, s.want)
		}
	}
	var got float64
	if r.F64("nan", &got); math.Float64bits(got) != math.Float64bits(math.NaN()) {
		t.Fatalf("NaN bit pattern %x not preserved", math.Float64bits(got))
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after a clean read: err %v, %d bytes remaining", r.Err(), r.Remaining())
	}
}

// samplePacket sets every serialized field to a distinct non-zero value,
// so a field dropped from either side of the codec shows up.
func samplePacket(id uint64) *message.Packet {
	p := &message.Packet{
		ID: id, Src: 3, Dst: 77, VNet: message.NumVNets - 1, Size: 5, Class: 2,
		BirthCycle: 100, InjectCycle: 104, EjectCycle: 131,
		EgressBoundary: 12, IngressInterposer: -1, Epoch: 4, DownPhase: true,
		RouteLayer: -2, LayerEntryX: 6, Popup: true, PopupID: id << 8, PopupResUsed: true,
		DstChiplet: 3, Addr: 0xdeadbeef, Txn: 99, AuxNode: 41, AuxCount: -5,
	}
	p.SetSnapMeta(7, true, id%2 == 0)
	return p
}

// TestPacketInterning: packet pointers travel as table references, so a
// pointer shared on the write side is shared on the read side, nil stays
// nil, distinct packets stay distinct, and every field of every packet —
// including one reachable only through the table — survives.
func TestPacketInterning(t *testing.T) {
	a, b, tableOnly := samplePacket(1), samplePacket(2), samplePacket(3)
	w := NewEncoder()
	w.Packet(&a)
	var none *message.Packet
	w.Packet(&none)
	w.Flit(&message.Flit{Pkt: b, Seq: 4})
	w.Flit(&message.Flit{Pkt: a, Seq: 0})
	w.Packet(&b)
	if w.PacketCount() != 2 {
		t.Fatalf("writer interned %d packets, want 2", w.PacketCount())
	}
	// A packet referenced by no section still gets a body when something
	// (the pool freelist, in a real snapshot) references it last.
	w.Packet(&tableOnly)
	w.PacketTable()

	r := NewDecoder(w.Bytes())
	ra := getPacket(r)
	if getPacket(r) != nil {
		t.Fatal("nil packet did not restore to nil")
	}
	fb := getFlit(r)
	fa := getFlit(r)
	rb := getPacket(r)
	rt := getPacket(r)
	r.PacketTable()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes remaining", r.Err(), r.Remaining())
	}
	if ra == nil || fa.Pkt != ra || fb.Pkt != rb || ra == rb || rt == ra || rt == rb {
		t.Fatal("pointer identity not preserved across the round trip")
	}
	if fa.Seq != 0 || fb.Seq != 4 {
		t.Fatalf("flit seqs %d, %d; want 0, 4", fa.Seq, fb.Seq)
	}
	if r.PacketCount() != 3 || r.PacketAt(0) != ra || r.PacketAt(2) != rt || r.PacketAt(3) != nil || r.PacketAt(-1) != nil {
		t.Fatal("reader table does not index the three packets in first-reference order")
	}
	for i, pair := range [][2]*message.Packet{{a, ra}, {b, rb}, {tableOnly, rt}} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("packet %d changed in the round trip:\nwrote %+v\nread  %+v", i, pair[0], pair[1])
		}
	}
}

// TestReaderRejects: malformed input — truncated, over-length, out of
// range — must make the decoding Codec set Err with the field's name,
// store zero values, and never panic; and the error must be sticky.
func TestReaderRejects(t *testing.T) {
	enc := func(f func(w *Codec)) []byte {
		w := NewEncoder()
		f(w)
		return w.Bytes()
	}
	str := func(w *Codec, s string) { w.String("s", &s, len(s)) }
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 11-byte varint
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Codec)
		want string
	}{
		{"uvarint empty", nil, func(r *Codec) { getU(r, "count") }, "count"},
		{"uvarint truncated", []byte{0x80}, func(r *Codec) { getU(r, "count") }, "count"},
		{"uvarint overlong", overlong, func(r *Codec) { getU(r, "count") }, "count"},
		{"varint truncated", []byte{0xff}, func(r *Codec) { getI(r, "delta") }, "delta"},
		{"varint overlong", overlong, func(r *Codec) { getI(r, "delta") }, "delta"},
		{"int below min", enc(func(w *Codec) { putI(w, -2) }), func(r *Codec) { var p int; Int(r, "port", &p, -1, 7) }, "port"},
		{"int above max", enc(func(w *Codec) { putI(w, 8) }), func(r *Codec) { var p int; Int(r, "port", &p, -1, 7) }, "port"},
		{"len above max", enc(func(w *Codec) { putU(w, 10) }), func(r *Codec) { r.Len("slots", 0, 9) }, "slots"},
		{"len huge", enc(func(w *Codec) { putU(w, math.MaxUint64) }), func(r *Codec) { r.Len("slots", 0, 9) }, "slots"},
		{"bool empty", nil, func(r *Codec) { var b bool; r.Bool("flag", &b) }, "flag"},
		{"bool byte 2", []byte{2}, func(r *Codec) { var b bool; r.Bool("flag", &b) }, "flag"},
		{"f64 truncated", make([]byte, 7), func(r *Codec) { var f float64; r.F64("rate", &f) }, "rate"},
		{"string over limit", enc(func(w *Codec) { str(w, "toolong") }), func(r *Codec) { var s string; r.String("label", &s, 3) }, "label"},
		{"string body truncated", enc(func(w *Codec) { str(w, "abcdef") })[:4], func(r *Codec) { var s string; r.String("label", &s, 16) }, "label"},
		{"packet ref past input", enc(func(w *Codec) { putU(w, 1<<40) }), func(r *Codec) { getPacket(r) }, "packet ref"},
		{"packet ref overflowing int", enc(func(w *Codec) { putU(w, math.MaxUint64) }), func(r *Codec) { getPacket(r) }, "packet ref"},
		{"flit seq negative", enc(func(w *Codec) { putU(w, 0); putI(w, -1) }), func(r *Codec) { getFlit(r) }, "flit seq"},
		{"flit seq above int32", enc(func(w *Codec) { putU(w, 0); putI(w, math.MaxInt32+1) }), func(r *Codec) { getFlit(r) }, "flit seq"},
		{"flit truncated", enc(func(w *Codec) { putU(w, 0) }), func(r *Codec) { getFlit(r) }, "flit seq"},
		{"table shorter than references", enc(func(w *Codec) { putU(w, 1); putU(w, 2); putU(w, 1) }),
			func(r *Codec) { getPacket(r); getPacket(r); r.PacketTable() }, "were referenced"},
		{"table count past input", enc(func(w *Codec) { putU(w, 1000) }), func(r *Codec) { r.PacketTable() }, "packet table count"},
		{"table body truncated", enc(func(w *Codec) { putU(w, 1); putU(w, 5) }), func(r *Codec) { r.PacketTable() }, "pkt src"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewDecoder(tc.data)
			tc.read(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", r.Err(), tc.want)
			}
			first := r.Err()
			// Sticky: every later read stores a zero value, over
			// whatever its destination held, and the first error stands.
			u, i, b, f, s := uint64(1), int64(1), true, 1.0, "x"
			p := &message.Packet{}
			fl := message.Flit{Pkt: p, Seq: 1}
			r.U64("x", &u)
			r.I64("x", &i)
			r.Bool("x", &b)
			r.F64("x", &f)
			r.String("x", &s, 8)
			r.Packet(&p)
			r.Flit(&fl)
			if u != 0 || i != 0 || b || f != 0 || s != "" || p != nil || fl != (message.Flit{}) || r.Remaining() != 0 {
				t.Fatal("reads after an error returned non-zero values")
			}
			r.Fail("a later failure")
			if r.Err() != first {
				t.Fatalf("first error %v replaced by %v", first, r.Err())
			}
		})
	}
}

// TestPacketBodyRejectsOutOfRangeFields: each range-checked field of a
// packet body is refused when out of range, wherever it sits in the body.
func TestPacketBodyRejectsOutOfRangeFields(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(p *message.Packet)
		want  string
	}{
		{"vnet", func(p *message.Packet) { p.VNet = message.NumVNets }, "pkt vnet"},
		{"size", func(p *message.Packet) { p.Size = -1 }, "pkt size"},
		{"class", func(p *message.Packet) { p.Class = 33 }, "pkt class"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := samplePacket(9)
			tc.spoil(p)
			w := NewEncoder()
			w.Packet(&p)
			w.PacketTable()
			r := NewDecoder(w.Bytes())
			getPacket(r)
			r.PacketTable()
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", r.Err(), tc.want)
			}
		})
	}
}

// TestPacketTableGrowthIsBounded: one reference far past the table's
// current size must not make the reader allocate its way there.
func TestPacketTableGrowthIsBounded(t *testing.T) {
	w := NewEncoder()
	for i := 0; i < maxPrealloc; i++ {
		putU(w, uint64(i)+1)
	}
	putU(w, 3*maxPrealloc) // a jump past double the table
	// Pad so the reference is not rejected merely for exceeding the input
	// length.
	for i := 0; i < 3*maxPrealloc; i++ {
		w.Bool("pad", new(bool))
	}
	r := NewDecoder(w.Bytes())
	for i := 0; i < maxPrealloc; i++ {
		getPacket(r)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if getPacket(r) != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "grows table too fast") {
		t.Fatalf("jumping reference accepted: err %v, table %d", r.Err(), r.PacketCount())
	}
	if r.PacketCount() != maxPrealloc {
		t.Fatalf("table grew to %d entries on a rejected reference", r.PacketCount())
	}
}
