package snap

import (
	"encoding/binary"
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// Packet walks a packet pointer as a table reference (0 for nil); shared
// pointers stay shared, and the bodies travel in the packet table.
// Encoding assigns the next reference on a packet's first encounter;
// decoding materializes a placeholder packet on first sight of a
// reference, which PacketTable later fills in.
func (c *Codec) Packet(p **message.Packet) {
	if !c.dec {
		var ref uint64
		if *p != nil {
			var ok bool
			if ref, ok = c.index[*p]; !ok {
				c.pkts = append(c.pkts, *p)
				ref = uint64(len(c.pkts))
				c.index[*p] = ref
			}
		}
		c.buf = binary.AppendUvarint(c.buf, ref)
		return
	}
	*p = nil
	ref := varint(c, "packet ref", "uvarint", binary.Uvarint)
	if c.err != nil || ref == 0 {
		return
	}
	if ref-1 > uint64(len(c.buf)) {
		// A reference can never exceed the number of encoded packets,
		// and the table body needs at least one byte per packet — any
		// index past the input length is corrupt. Compared unsigned: a
		// reference above MaxInt64 would wrap to a negative index.
		c.Fail("packet ref %d out of range", ref)
		return
	}
	idx := int(ref - 1)
	for idx >= len(c.pkts) {
		if len(c.pkts) >= maxPrealloc && idx >= 2*len(c.pkts) {
			// Grow geometrically past the prealloc cap, but refuse a
			// single reference to balloon the table.
			c.Fail("packet ref %d grows table too fast (have %d)", ref, len(c.pkts))
			return
		}
		c.pkts = append(c.pkts, &message.Packet{})
	}
	*p = c.pkts[idx]
}

// Flit walks a flit: packet reference plus sequence number. A flit that
// fails to decode is the zero flit.
func (c *Codec) Flit(f *message.Flit) {
	c.Packet(&f.Pkt)
	Int(c, "flit seq", &f.Seq, 0, math.MaxInt32)
	if c.dec && c.err != nil {
		*f = message.Flit{}
	}
}

// PacketTable walks the table body — the count of distinct packets
// referenced so far, then every field of each — closing the
// pointer-bearing sections; sections after it must not reference
// packets. Decoding requires the count to cover every reference seen so
// far (a reference without a body would leave a zero packet in live
// state).
func (c *Codec) PacketTable() {
	n := c.Len("packet table count", len(c.pkts), len(c.buf))
	if c.dec && c.err == nil && n < len(c.pkts) {
		c.Fail("packet table has %d entries but %d were referenced", n, len(c.pkts))
	}
	for i := 0; i < n && c.err == nil; i++ {
		if i == len(c.pkts) {
			// Entries only reachable through the freelist or table
			// order still need their identity materialized.
			c.pkts = append(c.pkts, &message.Packet{})
		}
		c.packetBody(c.pkts[i])
	}
	for i := 0; i < len(c.after) && c.err == nil; i++ {
		c.after[i]()
	}
}

// AfterPackets defers fn, restore work that reads decoded packets' fields,
// until PacketTable has filled in every body; fn runs unless decoding failed.
func (c *Codec) AfterPackets(fn func()) { c.after = append(c.after, fn) }

// PacketCount returns the number of table entries so far.
func (c *Codec) PacketCount() int { return len(c.pkts) }

// PacketAt returns table entry i (0-based), or nil if out of range.
func (c *Codec) PacketAt(i int) *message.Packet {
	if i < 0 || i >= len(c.pkts) {
		return nil
	}
	return c.pkts[i]
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
	if c.dec && c.err == nil {
		p.SetSnapMeta(gen, pooled, released)
	}
}
