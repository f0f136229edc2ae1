package snap

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"uppnoc/internal/message"
)

// TestPrimitiveRoundTrip writes every scalar primitive at its edge values
// and reads the stream back: same values, in order, nothing left over.
func TestPrimitiveRoundTrip(t *testing.T) {
	type step struct {
		name  string
		write func(w *Writer)
		read  func(r *Reader) any
		want  any
	}
	var steps []step
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64} {
		steps = append(steps, step{"uvarint",
			func(w *Writer) { w.uvarint(v) },
			func(r *Reader) any { return r.uvarint("u") }, v})
	}
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		steps = append(steps, step{"varint",
			func(w *Writer) { w.varint(v) },
			func(r *Reader) any { return r.varint("v") }, v})
	}
	for _, v := range []int{0, -7, 1 << 20} {
		steps = append(steps, step{"int",
			func(w *Writer) { w.varint(int64(v)) },
			func(r *Reader) any { return r.intIn("i", -7, 1<<20) }, v})
	}
	for _, v := range []int{0, 9} {
		steps = append(steps, step{"len",
			func(w *Writer) { w.uvarint(uint64(v)) },
			func(r *Reader) any { return r.length("n", 9) }, v})
	}
	for _, v := range []bool{true, false} {
		steps = append(steps, step{"bool",
			func(w *Writer) { w.boolean(v) },
			func(r *Reader) any { return r.boolean("b") }, v})
	}
	for _, v := range []float64{0, -0.5, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		steps = append(steps, step{"f64",
			func(w *Writer) { w.f64(v) },
			func(r *Reader) any { return r.f64("f") }, v})
	}
	for _, v := range []string{"", "UPWS", strings.Repeat("x", 300)} {
		steps = append(steps, step{"string",
			func(w *Writer) { w.str(v) },
			func(r *Reader) any { return r.str("s", 300) }, v})
	}

	w := NewWriter()
	for _, s := range steps {
		s.write(w)
	}
	w.f64(math.NaN()) // NaN != NaN: compared by bit pattern below
	r := NewReader(w.Bytes())
	for i, s := range steps {
		if got := s.read(r); got != s.want {
			t.Fatalf("step %d (%s): read %v, want %v", i, s.name, got, s.want)
		}
	}
	if got := r.f64("nan"); math.Float64bits(got) != math.Float64bits(math.NaN()) {
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
	w := NewWriter()
	w.packet(a)
	w.packet(nil)
	w.flit(message.Flit{Pkt: b, Seq: 4})
	w.flit(message.Flit{Pkt: a, Seq: 0})
	w.packet(b)
	if w.PacketCount() != 2 {
		t.Fatalf("writer interned %d packets, want 2", w.PacketCount())
	}
	// A packet referenced by no section still gets a body when something
	// (the pool freelist, in a real snapshot) references it last.
	w.packet(tableOnly)
	w.WritePacketTable()

	r := NewReader(w.Bytes())
	ra := r.packet()
	if r.packet() != nil {
		t.Fatal("nil packet did not restore to nil")
	}
	fb := r.flit()
	fa := r.flit()
	rb := r.packet()
	rt := r.packet()
	r.ReadPacketTable()
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
// range — must set Err with the field's name, return zero values, and
// never panic; and the error must be sticky.
func TestReaderRejects(t *testing.T) {
	enc := func(f func(w *Writer)) []byte {
		w := NewWriter()
		f(w)
		return w.Bytes()
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 11-byte varint
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"uvarint empty", nil, func(r *Reader) { r.uvarint("count") }, "count"},
		{"uvarint truncated", []byte{0x80}, func(r *Reader) { r.uvarint("count") }, "count"},
		{"uvarint overlong", overlong, func(r *Reader) { r.uvarint("count") }, "count"},
		{"varint truncated", []byte{0xff}, func(r *Reader) { r.varint("delta") }, "delta"},
		{"varint overlong", overlong, func(r *Reader) { r.varint("delta") }, "delta"},
		{"int below min", enc(func(w *Writer) { w.varint(int64(-2)) }), func(r *Reader) { r.intIn("port", -1, 7) }, "port"},
		{"int above max", enc(func(w *Writer) { w.varint(int64(8)) }), func(r *Reader) { r.intIn("port", -1, 7) }, "port"},
		{"len above max", enc(func(w *Writer) { w.uvarint(10) }), func(r *Reader) { r.length("slots", 9) }, "slots"},
		{"len huge", enc(func(w *Writer) { w.uvarint(math.MaxUint64) }), func(r *Reader) { r.length("slots", 9) }, "slots"},
		{"bool empty", nil, func(r *Reader) { r.boolean("flag") }, "flag"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.boolean("flag") }, "flag"},
		{"f64 truncated", make([]byte, 7), func(r *Reader) { r.f64("rate") }, "rate"},
		{"string over limit", enc(func(w *Writer) { w.str("toolong") }), func(r *Reader) { r.str("label", 3) }, "label"},
		{"string body truncated", enc(func(w *Writer) { w.str("abcdef") })[:4], func(r *Reader) { r.str("label", 16) }, "label"},
		{"packet ref past input", enc(func(w *Writer) { w.uvarint(1 << 40) }), func(r *Reader) { r.packet() }, "packet ref"},
		{"packet ref overflowing int", enc(func(w *Writer) { w.uvarint(math.MaxUint64) }), func(r *Reader) { r.packet() }, "packet ref"},
		{"flit seq negative", enc(func(w *Writer) { w.uvarint(0); w.varint(-1) }), func(r *Reader) { r.flit() }, "flit seq"},
		{"flit seq above int32", enc(func(w *Writer) { w.uvarint(0); w.varint(math.MaxInt32 + 1) }), func(r *Reader) { r.flit() }, "flit seq"},
		{"flit truncated", enc(func(w *Writer) { w.uvarint(0) }), func(r *Reader) { r.flit() }, "flit seq"},
		{"table shorter than references", enc(func(w *Writer) { w.uvarint(1); w.uvarint(2); w.uvarint(1) }),
			func(r *Reader) { r.packet(); r.packet(); r.ReadPacketTable() }, "were referenced"},
		{"table count past input", enc(func(w *Writer) { w.uvarint(1000) }), func(r *Reader) { r.ReadPacketTable() }, "packet table count"},
		{"table body truncated", enc(func(w *Writer) { w.uvarint(1); w.uvarint(5) }), func(r *Reader) { r.ReadPacketTable() }, "pkt src"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", r.Err(), tc.want)
			}
			first := r.Err()
			// Sticky: every later read is a zero value and the first
			// error stands.
			if r.uvarint("x") != 0 || r.varint("x") != 0 || r.boolean("x") || r.f64("x") != 0 ||
				r.str("x", 8) != "" || r.packet() != nil || r.flit() != (message.Flit{}) || r.Remaining() != 0 {
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
			w := NewWriter()
			w.packet(p)
			w.WritePacketTable()
			r := NewReader(w.Bytes())
			r.packet()
			r.ReadPacketTable()
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", r.Err(), tc.want)
			}
		})
	}
}

// TestPacketTableGrowthIsBounded: one reference far past the table's
// current size must not make the reader allocate its way there.
func TestPacketTableGrowthIsBounded(t *testing.T) {
	w := NewWriter()
	for i := 0; i < maxPrealloc; i++ {
		w.uvarint(uint64(i) + 1)
	}
	w.uvarint(3 * maxPrealloc) // a jump past double the table
	// Pad so the reference is not rejected merely for exceeding the input
	// length.
	for i := 0; i < 3*maxPrealloc; i++ {
		w.boolean(false)
	}
	r := NewReader(w.Bytes())
	for i := 0; i < maxPrealloc; i++ {
		r.packet()
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.packet() != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "grows table too fast") {
		t.Fatalf("jumping reference accepted: err %v, table %d", r.Err(), r.PacketCount())
	}
	if r.PacketCount() != maxPrealloc {
		t.Fatalf("table grew to %d entries on a rejected reference", r.PacketCount())
	}
}
