package network

import (
	"fmt"
	"io"

	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// TraceEvent is one observable simulator event. Tracing is off by default
// and costs one nil check per event when off: every call site guards its
// Trace call with Tracing, since boxing Trace's arguments allocates.
type TraceEvent struct {
	Cycle  sim.Cycle
	Kind   string // "inject", "eject", "consume", "flit", "popup", ...
	Node   topology.NodeID
	Detail string
}

// String formats the event as one log line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("[%8d] %-8s node%-3d %s", e.Cycle, e.Kind, e.Node, e.Detail)
}

// Tracer receives events as they happen.
type Tracer func(TraceEvent)

// SetTracer installs (or, with nil, removes) an event tracer.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// Trace emits an event if a tracer is installed. Scheme plugins use it to
// narrate protocol activity (UPP popups, remote-control reservations).
func (n *Network) Trace(kind string, node topology.NodeID, format string, args ...interface{}) {
	if n.tracer == nil {
		return
	}
	n.tracer(TraceEvent{Cycle: n.cycle, Kind: kind, Node: node, Detail: fmt.Sprintf(format, args...)})
}

// Tracing reports whether a tracer is installed. Callers test it before
// calling Trace, whose variadic arguments are boxed, and may allocate,
// before Trace can look.
func (n *Network) Tracing() bool { return n.tracer != nil }

// WriteTracer returns a Tracer that writes one line per event to w,
// keeping at most limit events (0 = unlimited).
func WriteTracer(w io.Writer, limit int) Tracer {
	count := 0
	return func(e TraceEvent) {
		if limit > 0 && count >= limit {
			return
		}
		count++
		fmt.Fprintln(w, e.String())
	}
}
