// Package snap is the binary layer of the UPWS snapshot format
// (DESIGN.md §14): a Writer and a sticky-error Reader over
// varint-encoded scalars, a packet table that serializes the pointer
// graph of in-flight (and freelisted) message.Packet values while
// preserving pointer identity across a restore, and the Codec (codec.go),
// the one cursor over either through which every snapshot section is
// described once and walked in both directions.
//
// The encoding follows the UPWT trace conventions: unsigned values are
// uvarints, signed values are zigzag varints, floats are the IEEE-754
// bit pattern as a fixed 8-byte little-endian word, and every read is
// bounds-validated so corrupted or truncated input yields a structured
// error, never a panic (see FuzzSnapshotDecode).
//
// Packet pointers are encoded as table references: index 0 is nil, and
// index i+1 names the i-th distinct packet encountered by the Writer.
// The table body — every field of every referenced packet — is written
// once, after all sections, by WritePacketTable. The Reader mirrors
// this: a reference materializes a placeholder *message.Packet on first
// sight (so shared pointers restore to shared pointers), and
// ReadPacketTable fills the bodies in at the end.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"

	"uppnoc/internal/message"
)

// maxPrealloc caps slice preallocation driven by untrusted length
// prefixes; larger collections grow as records actually arrive.
const maxPrealloc = 4096

// Writer accumulates a snapshot stream and owns the write side of the
// packet table. It is in-memory and cannot fail.
type Writer struct {
	buf   []byte
	index map[*message.Packet]uint64
	order []*message.Packet
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer {
	return &Writer{index: make(map[*message.Packet]uint64)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Codec returns a cursor that appends to w.
func (w *Writer) Codec() *Codec { return &Codec{w: w} }

func (w *Writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// varint appends a zigzag-encoded signed varint.
func (w *Writer) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// boolean appends a boolean as one byte.
func (w *Writer) boolean(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// f64 appends the IEEE-754 bit pattern as a fixed 8-byte LE word —
// bit-exact round-tripping, independent of formatting.
func (w *Writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// str appends a length-prefixed string.
func (w *Writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// packet appends a table reference for p (0 for nil), assigning the
// next index on first encounter. The packet's fields are written later
// by WritePacketTable.
func (w *Writer) packet(p *message.Packet) {
	if p == nil {
		w.uvarint(0)
		return
	}
	ref, ok := w.index[p]
	if !ok {
		ref = uint64(len(w.order)) + 1
		w.index[p] = ref
		w.order = append(w.order, p)
	}
	w.uvarint(ref)
}

// flit appends a flit: packet reference plus sequence number.
func (w *Writer) flit(f message.Flit) {
	w.packet(f.Pkt)
	w.varint(int64(f.Seq))
}

// WritePacketTable appends the table body: the count of distinct
// packets referenced so far, then every field of each. Call it after
// all sections that reference packets. Packets first referenced after
// this call would be lost, so the container writes it last (before
// packet-free trailing sections).
func (w *Writer) WritePacketTable() {
	w.uvarint(uint64(len(w.order)))
	c := w.Codec()
	// The body may not add new table entries; iterate by index so an
	// (impossible) append during the loop is still safe.
	for i := 0; i < len(w.order); i++ {
		c.packetBody(w.order[i])
	}
}

// PacketCount returns the number of distinct packets referenced so far.
func (w *Writer) PacketCount() int { return len(w.order) }

// Reader decodes a snapshot stream with a sticky error: after the first
// failure every read returns the zero value and Err() reports what went
// wrong and where.
type Reader struct {
	data []byte
	pos  int
	err  error
	pkts []*message.Packet
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Codec returns a cursor that reads from r.
func (r *Reader) Codec() *Codec { return &Codec{r: r} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.data) - r.pos
}

// Fail records a structured decode error (first one wins).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

// uvarint reads an unsigned varint; what names the field in errors.
func (r *Reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("truncated or malformed uvarint (%s)", what)
		return 0
	}
	r.pos += n
	return v
}

// varint reads a zigzag-encoded signed varint.
func (r *Reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("truncated or malformed varint (%s)", what)
		return 0
	}
	r.pos += n
	return v
}

// intIn reads a signed int and validates it against [min, max].
func (r *Reader) intIn(what string, min, max int64) int {
	v := r.varint(what)
	if r.err == nil && (v < min || v > max) {
		r.Fail("%s = %d outside [%d, %d]", what, v, min, max)
		return 0
	}
	return int(v)
}

// uintTo reads an unsigned value and validates it against max.
func (r *Reader) uintTo(what string, max uint64) uint64 {
	v := r.uvarint(what)
	if r.err == nil && v > max {
		r.Fail("%s = %d exceeds limit %d", what, v, max)
		return 0
	}
	return v
}

// length reads a collection length and validates it against max.
func (r *Reader) length(what string, max int) int {
	return int(r.uintTo(what, uint64(max)))
}

// boolean reads a boolean byte (must be 0 or 1).
func (r *Reader) boolean(what string) bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.Fail("truncated bool (%s)", what)
		return false
	}
	b := r.data[r.pos]
	if b > 1 {
		r.Fail("invalid bool byte %d (%s)", b, what)
		return false
	}
	r.pos++
	return b == 1
}

// f64 reads a fixed 8-byte IEEE-754 bit pattern.
func (r *Reader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.Fail("truncated float64 (%s)", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// str reads a length-prefixed string (capped at max bytes).
func (r *Reader) str(what string, max int) string {
	n := r.length(what, max)
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.Fail("truncated string body (%s)", what)
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// packet reads a table reference, materializing a placeholder packet on
// first sight of an index so shared pointers restore to shared
// pointers. ReadPacketTable later fills the bodies in.
func (r *Reader) packet() *message.Packet {
	ref := r.uvarint("packet ref")
	if r.err != nil || ref == 0 {
		return nil
	}
	if ref-1 > uint64(len(r.data)) {
		// A reference can never exceed the number of encoded packets,
		// and the table body needs at least one byte per packet — any
		// index past the input length is corrupt. Compared unsigned: a
		// reference above MaxInt64 would wrap to a negative index.
		r.Fail("packet ref %d out of range", ref)
		return nil
	}
	idx := int(ref - 1)
	for idx >= len(r.pkts) {
		if len(r.pkts) >= maxPrealloc && idx >= 2*len(r.pkts) {
			// Grow geometrically past the prealloc cap, but refuse a
			// single reference to balloon the table.
			r.Fail("packet ref %d grows table too fast (have %d)", ref, len(r.pkts))
			return nil
		}
		r.pkts = append(r.pkts, &message.Packet{})
	}
	return r.pkts[idx]
}

// flit reads a flit reference.
func (r *Reader) flit() message.Flit {
	p := r.packet()
	seq := r.varint("flit seq")
	if r.err != nil {
		return message.Flit{}
	}
	if seq < 0 || seq > math.MaxInt32 {
		r.Fail("flit seq %d out of range", seq)
		return message.Flit{}
	}
	return message.Flit{Pkt: p, Seq: int32(seq)}
}

// PacketCount returns the number of table entries materialized so far.
func (r *Reader) PacketCount() int { return len(r.pkts) }

// PacketAt returns table entry i (0-based), or nil if out of range.
func (r *Reader) PacketAt(i int) *message.Packet {
	if i < 0 || i >= len(r.pkts) {
		return nil
	}
	return r.pkts[i]
}

// ReadPacketTable decodes the table body into the placeholder packets
// materialized by earlier packet references. The encoded count must
// cover every reference seen so far (a reference without a body would
// leave a zero packet in live state).
func (r *Reader) ReadPacketTable() {
	n := r.length("packet table count", len(r.data))
	if r.err != nil {
		return
	}
	if n < len(r.pkts) {
		r.Fail("packet table has %d entries but %d were referenced", n, len(r.pkts))
		return
	}
	c := r.Codec()
	for i := 0; i < n; i++ {
		for i >= len(r.pkts) {
			// Entries only reachable through the freelist or table
			// order still need their identity materialized.
			r.pkts = append(r.pkts, &message.Packet{})
		}
		c.packetBody(r.pkts[i])
		if r.err != nil {
			return
		}
	}
}
