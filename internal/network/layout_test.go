package network

import (
	"testing"
	"unsafe"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// TestLayoutPins holds the hot-state layout of DESIGN.md §8: a VC is one
// cache line, everything a router or a route function reads of a packet per
// hop sits in the packet's first line, a wheel event is half a line, an
// outbox list's header strides a whole one and a node's routing record is
// at most a quarter of one.
func TestLayoutPins(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(router.VC{}); got != line {
		t.Errorf("router.VC is %d bytes, want %d: the record no longer fills exactly one cache line", got, line)
	}
	if got := unsafe.Sizeof(event{}); got != line/2 {
		t.Errorf("network.event is %d bytes, want %d", got, line/2)
	}
	if got := unsafe.Sizeof(outbox{}); got != line {
		t.Errorf("network.outbox is %d bytes, want %d: two workers' outbox headers could share a cache line", got, line)
	}
	if got := unsafe.Sizeof(topology.RouteNode{}); got > line/4 {
		t.Errorf("topology.RouteNode is %d bytes, want at most %d", got, line/4)
	}
	var p message.Packet
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"Src", unsafe.Offsetof(p.Src) + unsafe.Sizeof(p.Src)},
		{"Dst", unsafe.Offsetof(p.Dst) + unsafe.Sizeof(p.Dst)},
		{"VNet", unsafe.Offsetof(p.VNet) + unsafe.Sizeof(p.VNet)},
		{"Size", unsafe.Offsetof(p.Size) + unsafe.Sizeof(p.Size)},
		{"Class", unsafe.Offsetof(p.Class) + unsafe.Sizeof(p.Class)},
		{"Popup", unsafe.Offsetof(p.Popup) + unsafe.Sizeof(p.Popup)},
		{"DstChiplet", unsafe.Offsetof(p.DstChiplet) + unsafe.Sizeof(p.DstChiplet)},
		{"DownPhase", unsafe.Offsetof(p.DownPhase) + unsafe.Sizeof(p.DownPhase)},
		{"RouteLayer", unsafe.Offsetof(p.RouteLayer) + unsafe.Sizeof(p.RouteLayer)},
		{"LayerEntryX", unsafe.Offsetof(p.LayerEntryX) + unsafe.Sizeof(p.LayerEntryX)},
		{"EgressBoundary", unsafe.Offsetof(p.EgressBoundary) + unsafe.Sizeof(p.EgressBoundary)},
		{"IngressInterposer", unsafe.Offsetof(p.IngressInterposer) + unsafe.Sizeof(p.IngressInterposer)},
		{"Epoch", unsafe.Offsetof(p.Epoch) + unsafe.Sizeof(p.Epoch)},
	} {
		if f.end > line {
			t.Errorf("message.Packet.%s ends at byte %d: the per-hop header no longer fits the packet's first cache line", f.name, f.end)
		}
	}
}
