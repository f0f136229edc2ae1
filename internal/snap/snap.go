// Package snap is the simulator's one binary codec (DESIGN.md §14). A
// Codec walks a format's description in either direction: encoding
// appends the value behind each pointer it is handed, decoding overwrites
// that value with a bounds-checked read. Every byte format — the UPWS
// snapshot sections, the UPWR checkpoint header, the UPWT workload trace —
// is therefore described once, as a sequence of plain calls in wire order,
// and cannot be read in another order than it was written.
//
// Unsigned values are uvarints, signed values are zigzag varints, floats
// are the IEEE-754 bit pattern as a fixed 8-byte little-endian word, a
// fixed-width length is a 4-byte little-endian word, and a magic is its
// raw bytes. Every read is bounds-validated, so corrupted or truncated
// input yields a structured error, never a panic (FuzzSnapshotDecode,
// FuzzCheckpointSplit and FuzzTraceReplay hold the three formats to that).
//
// Packet pointers are encoded as table references: index 0 is nil, and
// index i+1 names the i-th distinct packet the encoder met. The table
// body — every field of every referenced packet — is walked once, after
// all sections, by PacketTable. Decoding mirrors this: a reference
// materializes a placeholder *message.Packet on first sight (so shared
// pointers restore to shared pointers), and PacketTable fills the bodies
// in at the end.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
)

// maxPrealloc caps slice preallocation driven by untrusted length
// prefixes; larger collections grow as records actually arrive.
const maxPrealloc = 4096

// Codec is a cursor over one encoding: NewEncoder appends to an in-memory
// buffer, NewDecoder reads a byte slice. Encoding only reads through the
// pointers, so a value that is not an addressable field goes through a
// local. Work that only a restore needs (resetting a container before
// refilling it, rebuilding derived state, structural checks across
// fields) hangs off Decoding().
//
// The error is sticky: after the first failure every field decodes as
// zero, every length as 0, and Err reports what went wrong and where.
type Codec struct {
	dec bool
	buf []byte // the encoding so far, or the input being decoded
	pos int    // decoding: offset of the next unread byte
	err error
	// The packet table: pkts[i] is the packet behind reference i+1, in
	// first-reference order; index maps a packet to its reference while
	// encoding.
	pkts  []*message.Packet
	index map[*message.Packet]uint64
	after []func() // AfterPackets' work, in registration order
}

// NewEncoder returns a Codec that appends to an empty buffer.
func NewEncoder() *Codec {
	return &Codec{index: make(map[*message.Packet]uint64)}
}

// NewDecoder returns a Codec that reads data.
func NewDecoder(data []byte) *Codec { return &Codec{dec: true, buf: data} }

// Decoding reports whether the walk overwrites state from its input.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoding so far (the input, when decoding).
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// Remaining returns the number of unread input bytes: 0 after an error,
// and always 0 when encoding.
func (c *Codec) Remaining() int {
	if !c.dec || c.err != nil {
		return 0
	}
	return len(c.buf) - c.pos
}

// InputLen is the loosest bound a decoded count can be given: the size of
// the input, since every element takes at least a byte (0 when encoding,
// where bounds are not consulted).
func (c *Codec) InputLen() int {
	if c.dec {
		return len(c.buf)
	}
	return 0
}

// Fail records a structured error at the current offset (first one wins).
// A description's own checks fail through it: structural checks on
// decoded state sit under Decoding(), while a check that also refuses to
// encode an unreadable value (the UPWT record bounds) runs both ways.
func (c *Codec) Fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	off := len(c.buf)
	if c.dec {
		off = c.pos
	}
	c.err = fmt.Errorf("snap: offset %d: %s", off, fmt.Sprintf(format, args...))
}

// take consumes the next n input bytes, or fails naming the field and
// its kind and returns nil.
func (c *Codec) take(what, kind string, n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.pos {
		c.Fail("truncated %s (%s: %d bytes, %d remain)", what, kind, n, len(c.buf)-c.pos)
		return nil
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos]
}

// varint decodes one uvarint or zigzag varint with read: 0 once anything
// has failed, and a failure naming the field when the input ends inside
// it (n == 0) or it overflows 64 bits (n < 0).
func varint[T int64 | uint64](c *Codec, what, kind string, read func([]byte) (T, int)) T {
	if c.err != nil {
		return 0
	}
	x, n := read(c.buf[c.pos:])
	if n <= 0 {
		if n == 0 {
			c.Fail("truncated %s (%s)", what, kind)
		} else {
			c.Fail("malformed %s (%s overflows 64 bits)", what, kind)
		}
		return 0
	}
	c.pos += n
	return x
}

// U64 walks an unbounded unsigned field (uvarint).
func (c *Codec) U64(what string, v *uint64) {
	if c.dec {
		*v = varint(c, what, "uvarint", binary.Uvarint)
	} else {
		c.buf = binary.AppendUvarint(c.buf, *v)
	}
}

// I64 walks an unbounded signed field such as a cycle (zigzag varint).
func (c *Codec) I64(what string, v *int64) {
	if c.dec {
		*v = varint(c, what, "varint", binary.Varint)
	} else {
		c.buf = binary.AppendVarint(c.buf, *v)
	}
}

// integer is any integer type a bounded field may be stored in, so that
// NodeID, PortID, VNet and the narrow counters need no temporary.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int walks a field encoded as a zigzag varint and accepted only within
// [min, max], which must fit T.
func Int[T integer](c *Codec, what string, v *T, min, max int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
		return
	}
	x := varint(c, what, "varint", binary.Varint)
	if c.err == nil && (x < min || x > max) {
		c.Fail("%s = %d outside [%d, %d]", what, x, min, max)
		x = 0
	}
	*v = T(x)
}

// Uint walks a field encoded as a uvarint and accepted only up to max,
// which must fit T.
func Uint[T integer](c *Codec, what string, v *T, max uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(*v))
		return
	}
	x := varint(c, what, "uvarint", binary.Uvarint)
	if c.err == nil && x > max {
		c.Fail("%s = %d exceeds limit %d", what, x, max)
		x = 0
	}
	*v = T(x)
}

// Len walks a collection length: encoding writes n and returns it,
// decoding returns the stored length — at most max, and 0 after any
// error, so an untrusted prefix cannot drive a loop.
func (c *Codec) Len(what string, n, max int) int {
	Uint(c, what, &n, uint64(max))
	return n
}

// Bool walks a boolean (one byte, 0 or 1).
func (c *Codec) Bool(what string, v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	*v = false
	if b := c.take(what, "bool", 1); b != nil {
		if b[0] > 1 {
			c.Fail("invalid bool byte %d (%s)", b[0], what)
			return
		}
		*v = b[0] == 1
	}
}

// F64 walks a float as its fixed 8-byte IEEE-754 bit pattern —
// bit-exact round-tripping, independent of formatting.
func (c *Codec) F64(what string, v *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	*v = 0
	if b := c.take(what, "float64", 8); b != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// U32 walks a fixed 4-byte little-endian word.
func (c *Codec) U32(what string, v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
		return
	}
	*v = 0
	if b := c.take(what, "uint32", 4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// String walks a length-prefixed string of at most max bytes.
func (c *Codec) String(what string, v *string, max int) {
	n := c.Len(what, len(*v), max)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = string(c.take(what, "string body", n))
}

// Raw walks n bytes with no length prefix of their own (the description
// walks the length first); encoding appends *v, which must hold n bytes,
// and decoding stores a copy of the next n input bytes.
func (c *Codec) Raw(what string, v *[]byte, n int) {
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = append([]byte(nil), c.take(what, "raw", n)...)
}

// Magic walks a format's signature as its raw bytes; decoding fails
// unless the input continues with exactly magic.
func (c *Codec) Magic(magic string) {
	if !c.dec {
		c.buf = append(c.buf, magic...)
		return
	}
	if c.err != nil {
		return
	}
	if len(c.buf)-c.pos < len(magic) {
		c.Fail("short header: %d bytes, magic %q needs %d", len(c.buf)-c.pos, magic, len(magic))
		return
	}
	if got := string(c.buf[c.pos : c.pos+len(magic)]); got != magic {
		c.Fail("bad magic %q (want %q)", got, magic)
		return
	}
	c.pos += len(magic)
}

// Slice walks a length-prefixed slice of at most max elements, elem
// describing one element in place. Decoding refills *s from empty, one
// element at a time as the bytes for it arrive, and stops at the first
// element that fails; so does encoding.
func Slice[T any](c *Codec, what string, s *[]T, max int, elem func(*T)) {
	n := c.Len(what, len(*s), max)
	if c.dec {
		if *s = (*s)[:0]; cap(*s) < min(n, maxPrealloc) {
			*s = make([]T, 0, min(n, maxPrealloc))
		}
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			var zero T
			*s = append(*s, zero)
		}
		elem(&(*s)[i])
	}
}

// RNG walks a generator's four state words; decoding installs them only
// when all four arrived.
func (c *Codec) RNG(what string, rng *sim.RNG) {
	st := rng.State()
	for i := range st {
		c.U64(what, &st[i])
	}
	if c.dec && c.err == nil {
		rng.SetState(st)
	}
}
