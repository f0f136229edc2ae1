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
			func(w *Writer) { w.Uvarint(v) },
			func(r *Reader) any { return r.Uvarint("u") }, v})
	}
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		steps = append(steps, step{"varint",
			func(w *Writer) { w.Varint(v) },
			func(r *Reader) any { return r.Varint("v") }, v})
	}
	for _, v := range []int{0, -7, 1 << 20} {
		steps = append(steps, step{"int",
			func(w *Writer) { w.Int(v) },
			func(r *Reader) any { return r.Int("i", -7, 1<<20) }, v})
	}
	for _, v := range []int{0, 9} {
		steps = append(steps, step{"len",
			func(w *Writer) { w.Uvarint(uint64(v)) },
			func(r *Reader) any { return r.Len("n", 9) }, v})
	}
	for _, v := range []bool{true, false} {
		steps = append(steps, step{"bool",
			func(w *Writer) { w.Bool(v) },
			func(r *Reader) any { return r.Bool("b") }, v})
	}
	for _, v := range []float64{0, -0.5, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		steps = append(steps, step{"f64",
			func(w *Writer) { w.F64(v) },
			func(r *Reader) any { return r.F64("f") }, v})
	}
	for _, v := range []string{"", "UPWS", strings.Repeat("x", 300)} {
		steps = append(steps, step{"string",
			func(w *Writer) { w.String(v) },
			func(r *Reader) any { return r.String("s", 300) }, v})
	}

	w := NewWriter()
	for _, s := range steps {
		s.write(w)
	}
	w.F64(math.NaN()) // NaN != NaN: compared by bit pattern below
	r := NewReader(w.Bytes())
	for i, s := range steps {
		if got := s.read(r); got != s.want {
			t.Fatalf("step %d (%s): read %v, want %v", i, s.name, got, s.want)
		}
	}
	if got := r.F64("nan"); math.Float64bits(got) != math.Float64bits(math.NaN()) {
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
	w.Packet(a)
	w.Packet(nil)
	w.Flit(message.Flit{Pkt: b, Seq: 4})
	w.Flit(message.Flit{Pkt: a, Seq: 0})
	w.Packet(b)
	if w.PacketCount() != 2 {
		t.Fatalf("writer interned %d packets, want 2", w.PacketCount())
	}
	// A packet referenced by no section still gets a body when something
	// (the pool freelist, in a real snapshot) references it last.
	w.Packet(tableOnly)
	w.WritePacketTable()

	r := NewReader(w.Bytes())
	ra := r.Packet()
	if r.Packet() != nil {
		t.Fatal("nil packet did not restore to nil")
	}
	fb := r.Flit()
	fa := r.Flit()
	rb := r.Packet()
	rt := r.Packet()
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
		{"uvarint empty", nil, func(r *Reader) { r.Uvarint("count") }, "count"},
		{"uvarint truncated", []byte{0x80}, func(r *Reader) { r.Uvarint("count") }, "count"},
		{"uvarint overlong", overlong, func(r *Reader) { r.Uvarint("count") }, "count"},
		{"varint truncated", []byte{0xff}, func(r *Reader) { r.Varint("delta") }, "delta"},
		{"varint overlong", overlong, func(r *Reader) { r.Varint("delta") }, "delta"},
		{"int below min", enc(func(w *Writer) { w.Int(-2) }), func(r *Reader) { r.Int("port", -1, 7) }, "port"},
		{"int above max", enc(func(w *Writer) { w.Int(8) }), func(r *Reader) { r.Int("port", -1, 7) }, "port"},
		{"len above max", enc(func(w *Writer) { w.Uvarint(10) }), func(r *Reader) { r.Len("slots", 9) }, "slots"},
		{"len huge", enc(func(w *Writer) { w.Uvarint(math.MaxUint64) }), func(r *Reader) { r.Len("slots", 9) }, "slots"},
		{"bool empty", nil, func(r *Reader) { r.Bool("flag") }, "flag"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool("flag") }, "flag"},
		{"f64 truncated", make([]byte, 7), func(r *Reader) { r.F64("rate") }, "rate"},
		{"string over limit", enc(func(w *Writer) { w.String("toolong") }), func(r *Reader) { r.String("label", 3) }, "label"},
		{"string body truncated", enc(func(w *Writer) { w.String("abcdef") })[:4], func(r *Reader) { r.String("label", 16) }, "label"},
		{"packet ref past input", enc(func(w *Writer) { w.Uvarint(1 << 40) }), func(r *Reader) { r.Packet() }, "packet ref"},
		{"packet ref overflowing int", enc(func(w *Writer) { w.Uvarint(math.MaxUint64) }), func(r *Reader) { r.Packet() }, "packet ref"},
		{"flit seq negative", enc(func(w *Writer) { w.Uvarint(0); w.Varint(-1) }), func(r *Reader) { r.Flit() }, "flit seq"},
		{"flit seq above int32", enc(func(w *Writer) { w.Uvarint(0); w.Varint(math.MaxInt32 + 1) }), func(r *Reader) { r.Flit() }, "flit seq"},
		{"flit truncated", enc(func(w *Writer) { w.Uvarint(0) }), func(r *Reader) { r.Flit() }, "flit seq"},
		{"table shorter than references", enc(func(w *Writer) { w.Uvarint(1); w.Uvarint(2); w.Uvarint(1) }),
			func(r *Reader) { r.Packet(); r.Packet(); r.ReadPacketTable() }, "were referenced"},
		{"table count past input", enc(func(w *Writer) { w.Uvarint(1000) }), func(r *Reader) { r.ReadPacketTable() }, "packet table count"},
		{"table body truncated", enc(func(w *Writer) { w.Uvarint(1); w.Uvarint(5) }), func(r *Reader) { r.ReadPacketTable() }, "pkt src"},
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
			if r.Uvarint("x") != 0 || r.Varint("x") != 0 || r.Bool("x") || r.F64("x") != 0 ||
				r.String("x", 8) != "" || r.Packet() != nil || r.Flit() != (message.Flit{}) || r.Remaining() != 0 {
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
			w.Packet(p)
			w.WritePacketTable()
			r := NewReader(w.Bytes())
			r.Packet()
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
		w.Uvarint(uint64(i) + 1)
	}
	w.Uvarint(3 * maxPrealloc) // a jump past double the table
	// Pad so the reference is not rejected merely for exceeding the input
	// length.
	for i := 0; i < 3*maxPrealloc; i++ {
		w.Bool(false)
	}
	r := NewReader(w.Bytes())
	for i := 0; i < maxPrealloc; i++ {
		r.Packet()
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Packet() != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "grows table too fast") {
		t.Fatalf("jumping reference accepted: err %v, table %d", r.Err(), r.PacketCount())
	}
	if r.PacketCount() != maxPrealloc {
		t.Fatalf("table grew to %d entries on a rejected reference", r.PacketCount())
	}
}
