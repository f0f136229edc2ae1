package snap

import (
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Codec walks a snapshot section in either direction: wrapping a Writer
// it appends the value behind each pointer it is handed, wrapping a
// Reader it overwrites that value with a bounds-checked read. A section
// is therefore described once — a sequence of plain calls in wire order —
// and cannot be read in another order than it was written, and a field's
// label and bounds are arguments of its one line.
//
// Encoding only reads through the pointers, so a value that is not an
// addressable field goes through a local. Decoding has the Reader's
// sticky error: after the first failure every field reads as zero, every
// length as 0, and Err reports what went wrong and where. Work that only
// a restore needs (resetting a container before refilling it, rebuilding
// derived state, structural checks across fields) hangs off Decoding().
type Codec struct {
	w *Writer
	r *Reader
}

// Decoding reports whether the walk overwrites state from a Reader.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first decode error; encoding cannot fail.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return nil
}

// Fail records a structured decode error (first one wins). Structural
// checks sit under Decoding(), so it is never reached while encoding.
func (c *Codec) Fail(format string, args ...any) {
	if c.r != nil {
		c.r.Fail(format, args...)
	}
}

// U64 walks an unbounded unsigned field (uvarint).
func (c *Codec) U64(what string, v *uint64) {
	if c.r != nil {
		*v = c.r.uvarint(what)
	} else {
		c.w.uvarint(*v)
	}
}

// I64 walks an unbounded signed field such as a cycle (zigzag varint).
func (c *Codec) I64(what string, v *int64) {
	if c.r != nil {
		*v = c.r.varint(what)
	} else {
		c.w.varint(*v)
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
	if c.r != nil {
		*v = T(c.r.intIn(what, min, max))
	} else {
		c.w.varint(int64(*v))
	}
}

// Uint walks a field encoded as a uvarint and accepted only up to max,
// which must fit T.
func Uint[T integer](c *Codec, what string, v *T, max uint64) {
	if c.r != nil {
		*v = T(c.r.uintTo(what, max))
	} else {
		c.w.uvarint(uint64(*v))
	}
}

// Bool walks a boolean (one byte, 0 or 1).
func (c *Codec) Bool(what string, v *bool) {
	if c.r != nil {
		*v = c.r.boolean(what)
	} else {
		c.w.boolean(*v)
	}
}

// F64 walks a float as its fixed 8-byte IEEE-754 bit pattern.
func (c *Codec) F64(what string, v *float64) {
	if c.r != nil {
		*v = c.r.f64(what)
	} else {
		c.w.f64(*v)
	}
}

// String walks a length-prefixed string of at most max bytes.
func (c *Codec) String(what string, v *string, max int) {
	if c.r != nil {
		*v = c.r.str(what, max)
	} else {
		c.w.str(*v)
	}
}

// Packet walks a packet pointer as a table reference (0 for nil); shared
// pointers stay shared, and the bodies travel in the packet table.
func (c *Codec) Packet(p **message.Packet) {
	if c.r != nil {
		*p = c.r.packet()
	} else {
		c.w.packet(*p)
	}
}

// Flit walks a flit: packet reference plus sequence number.
func (c *Codec) Flit(f *message.Flit) {
	if c.r != nil {
		*f = c.r.flit()
	} else {
		c.w.flit(*f)
	}
}

// Len walks a collection length: encoding writes n and returns it,
// decoding returns the stored length — at most max, and 0 after any
// error, so an untrusted prefix cannot drive a loop.
func (c *Codec) Len(what string, n, max int) int {
	if c.r != nil {
		return c.r.length(what, max)
	}
	c.w.uvarint(uint64(n))
	return n
}

// InputLen is the loosest bound a decoded count can be given: the size of
// the input, since every element takes at least a byte (0 when encoding,
// where bounds are not consulted).
func (c *Codec) InputLen() int {
	if c.r != nil {
		return len(c.r.data)
	}
	return 0
}

// Slice walks a length-prefixed slice of at most max elements, elem
// describing one element in place. Decoding refills *s from empty, one
// element at a time as the bytes for it arrive, and stops at the first
// element that fails.
func Slice[T any](c *Codec, what string, s *[]T, max int, elem func(*T)) {
	n := c.Len(what, len(*s), max)
	if c.r != nil {
		if *s = (*s)[:0]; cap(*s) < min(n, maxPrealloc) {
			*s = make([]T, 0, min(n, maxPrealloc))
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.r != nil {
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
	if c.r != nil && c.r.err == nil {
		rng.SetState(st)
	}
}

// PacketTable walks the table body — every field of every packet
// referenced so far — closing the pointer-bearing sections; sections
// after it must not reference packets.
func (c *Codec) PacketTable() {
	if c.r != nil {
		c.r.ReadPacketTable()
	} else {
		c.w.WritePacketTable()
	}
}

func (c *Codec) node(what string, v *topology.NodeID) {
	Int(c, what, v, math.MinInt32, math.MaxInt32)
}

// packetBody is the one description of a packet's serialized fields.
func (c *Codec) packetBody(p *message.Packet) {
	c.U64("pkt id", &p.ID)
	c.node("pkt src", &p.Src)
	c.node("pkt dst", &p.Dst)
	Int(c, "pkt vnet", &p.VNet, -1, message.NumVNets-1)
	Int(c, "pkt size", &p.Size, 0, 1<<20)
	Int(c, "pkt class", &p.Class, 0, 32)
	c.I64("pkt birth", &p.BirthCycle)
	c.I64("pkt inject", &p.InjectCycle)
	c.I64("pkt eject", &p.EjectCycle)
	c.node("pkt egress", &p.EgressBoundary)
	c.node("pkt ingress", &p.IngressInterposer)
	Uint(c, "pkt epoch", &p.Epoch, math.MaxUint32)
	c.Bool("pkt downphase", &p.DownPhase)
	Int(c, "pkt routelayer", &p.RouteLayer, math.MinInt16, math.MaxInt16)
	Int(c, "pkt layerentryx", &p.LayerEntryX, math.MinInt16, math.MaxInt16)
	c.Bool("pkt popup", &p.Popup)
	c.U64("pkt popup id", &p.PopupID)
	c.Bool("pkt popup res", &p.PopupResUsed)
	Int(c, "pkt dstchiplet", &p.DstChiplet, math.MinInt16, math.MaxInt16)
	c.U64("pkt addr", &p.Addr)
	c.U64("pkt txn", &p.Txn)
	c.node("pkt auxnode", &p.AuxNode)
	Int(c, "pkt auxcount", &p.AuxCount, math.MinInt32, math.MaxInt32)
	// The pool-ownership fields are unexported in message: through locals.
	gen, pooled, released := p.SnapMeta()
	Uint(c, "pkt gen", &gen, math.MaxUint32)
	c.Bool("pkt pooled", &pooled)
	c.Bool("pkt released", &released)
	if c.r != nil && c.r.err == nil {
		p.SetSnapMeta(gen, pooled, released)
	}
}
