// Package snap provides the binary primitives shared by the UPWS
// snapshot format (DESIGN.md §14): a sticky-error Writer/Reader pair
// over varint-encoded scalars, plus a packet table that serializes the
// pointer graph of in-flight (and freelisted) message.Packet values
// while preserving pointer identity across a restore.
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
	"uppnoc/internal/topology"
)

func topoNode(r *Reader, what string) topology.NodeID {
	return topology.NodeID(r.Int(what, math.MinInt32, math.MaxInt32))
}

// maxPrealloc caps slice preallocation driven by untrusted length
// prefixes; larger collections grow as records actually arrive.
const maxPrealloc = 4096

// Writer accumulates a snapshot section stream. Errors are sticky but
// the write side is in-memory and cannot fail; the type exists to
// mirror Reader and own the packet table.
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

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends a signed int (zigzag varint).
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends the IEEE-754 bit pattern as a fixed 8-byte LE word —
// bit-exact round-tripping, independent of formatting.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Packet appends a table reference for p (0 for nil), assigning the
// next index on first encounter. The packet's fields are written later
// by WritePacketTable.
func (w *Writer) Packet(p *message.Packet) {
	if p == nil {
		w.Uvarint(0)
		return
	}
	ref, ok := w.index[p]
	if !ok {
		ref = uint64(len(w.order)) + 1
		w.index[p] = ref
		w.order = append(w.order, p)
	}
	w.Uvarint(ref)
}

// Flit appends a flit: packet reference plus sequence number.
func (w *Writer) Flit(f message.Flit) {
	w.Packet(f.Pkt)
	w.Varint(int64(f.Seq))
}

// WritePacketTable appends the table body: the count of distinct
// packets referenced so far, then every field of each. Call it after
// all sections that reference packets. Packets first referenced after
// this call would be lost, so the container writes it last (before
// packet-free trailing sections).
func (w *Writer) WritePacketTable() {
	w.Uvarint(uint64(len(w.order)))
	// The body may not add new table entries; iterate by index so an
	// (impossible) append during the loop is still safe.
	for i := 0; i < len(w.order); i++ {
		w.writePacketBody(w.order[i])
	}
}

// PacketCount returns the number of distinct packets referenced so far.
func (w *Writer) PacketCount() int { return len(w.order) }

func (w *Writer) writePacketBody(p *message.Packet) {
	w.Uvarint(p.ID)
	w.Varint(int64(p.Src))
	w.Varint(int64(p.Dst))
	w.Varint(int64(p.VNet))
	w.Int(p.Size)
	w.Varint(int64(p.Class))
	w.Varint(p.BirthCycle)
	w.Varint(p.InjectCycle)
	w.Varint(p.EjectCycle)
	w.Varint(int64(p.EgressBoundary))
	w.Varint(int64(p.IngressInterposer))
	w.Uvarint(uint64(p.Epoch))
	w.Bool(p.DownPhase)
	w.Varint(int64(p.RouteLayer))
	w.Varint(int64(p.LayerEntryX))
	w.Bool(p.Popup)
	w.Uvarint(p.PopupID)
	w.Bool(p.PopupResUsed)
	w.Varint(int64(p.DstChiplet))
	w.Uvarint(p.Addr)
	w.Uvarint(p.Txn)
	w.Varint(int64(p.AuxNode))
	w.Varint(int64(p.AuxCount))
	gen, pooled, released := p.SnapMeta()
	w.Uvarint(uint64(gen))
	w.Bool(pooled)
	w.Bool(released)
}

// Reader decodes a snapshot section stream with a sticky error: after
// the first failure every getter returns the zero value and Err()
// reports what went wrong and where.
type Reader struct {
	data []byte
	pos  int
	err  error
	pkts []*message.Packet
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

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

// Uvarint reads an unsigned varint; what names the field in errors.
func (r *Reader) Uvarint(what string) uint64 {
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

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint(what string) int64 {
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

// Int reads a signed int and validates it against [min, max].
func (r *Reader) Int(what string, min, max int64) int {
	v := r.Varint(what)
	if r.err == nil && (v < min || v > max) {
		r.Fail("%s = %d outside [%d, %d]", what, v, min, max)
		return 0
	}
	return int(v)
}

// Len reads a collection length and validates it against max.
func (r *Reader) Len(what string, max int) int {
	v := r.Uvarint(what)
	if r.err == nil && v > uint64(max) {
		r.Fail("%s = %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

// Bool reads a boolean byte (must be 0 or 1).
func (r *Reader) Bool(what string) bool {
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

// F64 reads a fixed 8-byte IEEE-754 bit pattern.
func (r *Reader) F64(what string) float64 {
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

// String reads a length-prefixed string (capped at max bytes).
func (r *Reader) String(what string, max int) string {
	n := r.Len(what, max)
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

// Packet reads a table reference, materializing a placeholder packet on
// first sight of an index so shared pointers restore to shared
// pointers. ReadPacketTable later fills the bodies in.
func (r *Reader) Packet() *message.Packet {
	ref := r.Uvarint("packet ref")
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

// Flit reads a flit reference.
func (r *Reader) Flit() message.Flit {
	p := r.Packet()
	seq := r.Varint("flit seq")
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
// materialized by earlier Packet calls. The encoded count must cover
// every reference seen so far (a reference without a body would leave a
// zero packet in live state).
func (r *Reader) ReadPacketTable() {
	n := r.Len("packet table count", len(r.data))
	if r.err != nil {
		return
	}
	if n < len(r.pkts) {
		r.Fail("packet table has %d entries but %d were referenced", n, len(r.pkts))
		return
	}
	for i := 0; i < n; i++ {
		for i >= len(r.pkts) {
			// Entries only reachable through the freelist or table
			// order still need their identity materialized.
			r.pkts = append(r.pkts, &message.Packet{})
		}
		r.readPacketBody(r.pkts[i])
		if r.err != nil {
			return
		}
	}
}

func (r *Reader) readPacketBody(p *message.Packet) {
	p.ID = r.Uvarint("pkt id")
	p.Src = topoNode(r, "pkt src")
	p.Dst = topoNode(r, "pkt dst")
	p.VNet = message.VNet(r.Int("pkt vnet", -1, message.NumVNets-1))
	p.Size = r.Int("pkt size", 0, 1<<20)
	p.Class = message.Class(r.Int("pkt class", 0, 32))
	p.BirthCycle = r.Varint("pkt birth")
	p.InjectCycle = r.Varint("pkt inject")
	p.EjectCycle = r.Varint("pkt eject")
	p.EgressBoundary = topoNode(r, "pkt egress")
	p.IngressInterposer = topoNode(r, "pkt ingress")
	epoch := r.Uvarint("pkt epoch")
	if r.err == nil && epoch > math.MaxUint32 {
		r.Fail("pkt epoch %d out of range", epoch)
		return
	}
	p.Epoch = uint32(epoch)
	p.DownPhase = r.Bool("pkt downphase")
	p.RouteLayer = int16(r.Int("pkt routelayer", math.MinInt16, math.MaxInt16))
	p.LayerEntryX = int16(r.Int("pkt layerentryx", math.MinInt16, math.MaxInt16))
	p.Popup = r.Bool("pkt popup")
	p.PopupID = r.Uvarint("pkt popup id")
	p.PopupResUsed = r.Bool("pkt popup res")
	p.DstChiplet = int16(r.Int("pkt dstchiplet", math.MinInt16, math.MaxInt16))
	p.Addr = r.Uvarint("pkt addr")
	p.Txn = r.Uvarint("pkt txn")
	p.AuxNode = topoNode(r, "pkt auxnode")
	p.AuxCount = int32(r.Int("pkt auxcount", math.MinInt32, math.MaxInt32))
	gen := r.Uvarint("pkt gen")
	pooled := r.Bool("pkt pooled")
	released := r.Bool("pkt released")
	if r.err != nil {
		return
	}
	if gen > math.MaxUint32 {
		r.Fail("pkt gen %d out of range", gen)
		return
	}
	p.SetSnapMeta(uint32(gen), pooled, released)
}
