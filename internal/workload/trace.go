package workload

import (
	"fmt"
	"io"
	"math"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// Binary trace format ("UPWT"), the record/replay frontend that makes
// third-party workload traces loadable:
//
//	magic   [4]byte "UPWT"
//	version uvarint (1)
//	ranks   uvarint (core count the trace was recorded over)
//	records uvarint (exact record count; trailing bytes are an error)
//	record* :
//	    dcycle uvarint (cycle delta vs the previous record; cycles are
//	                    non-decreasing by construction, at most MaxTraceCycle)
//	    src    uvarint (core rank)
//	    dst    uvarint (core rank, != src)
//	    vnet   uvarint
//	    class  uvarint
//	    flits  uvarint (1..MaxTraceFlits)
//
// The format is one description on a snap.Codec (walk), so WriteTrace
// and ReadTrace cannot disagree on it. A valid vnet or class is below 128,
// so its uvarint is the single byte the first version wrote raw. Both
// directions validate every record: WriteTrace refuses a trace ReadTrace
// would refuse, and ReadTrace returns an error — never panics — on
// malformed headers, truncated records, out-of-range node IDs, sizes or
// cycles (FuzzTraceReplay holds it to that).
const (
	traceMagic   = "UPWT"
	traceVersion = 1
	// MaxTraceRanks bounds the rank count a trace may declare.
	MaxTraceRanks = 1 << 20
	// MaxTraceFlits bounds a single message's flit count.
	MaxTraceFlits = 1 << 10
	// MaxTraceCycle bounds a record's cycle, so the running sum of the
	// deltas can neither wrap sim.Cycle nor leave a trace that cannot be
	// written back.
	MaxTraceCycle = 1 << 40
)

// TraceRecord is one injected message of a recorded run.
type TraceRecord struct {
	Cycle sim.Cycle
	Src   int
	Dst   int
	VNet  message.VNet
	Class message.Class
	Flits int
}

// Trace is a parsed workload trace.
type Trace struct {
	Ranks   int
	Records []TraceRecord
}

// TraceRecorder implements Recorder by accumulating records in memory
// (injection order — ascending cycle, ranks ascending within a cycle —
// which WriteTrace's delta encoding requires).
type TraceRecorder struct {
	trace Trace
}

// NewTraceRecorder returns a recorder for a system with the given core
// count. Attach with Engine.SetRecorder.
func NewTraceRecorder(ranks int) *TraceRecorder {
	return &TraceRecorder{trace: Trace{Ranks: ranks}}
}

// Record implements Recorder.
func (r *TraceRecorder) Record(cycle sim.Cycle, srcRank, dstRank int, vnet message.VNet, class message.Class, flits int) {
	r.trace.Records = append(r.trace.Records, TraceRecord{
		Cycle: cycle, Src: srcRank, Dst: dstRank, VNet: vnet, Class: class, Flits: flits,
	})
}

// Trace returns the accumulated trace.
func (r *TraceRecorder) Trace() *Trace { return &r.trace }

// Write writes the trace in the binary format.
func (r *TraceRecorder) Write(w io.Writer) error { return WriteTrace(w, &r.trace) }

// WriteTrace serializes t. Records must be in non-decreasing cycle order
// (the order the engine injects in).
func WriteTrace(w io.Writer, t *Trace) error {
	c := snap.NewEncoder()
	if err := t.walk(c); err != nil {
		return err
	}
	_, err := w.Write(c.Bytes())
	return err
}

// ReadTrace parses and validates a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("workload trace: %w", err)
	}
	t := &Trace{}
	c := snap.NewDecoder(data)
	if err := t.walk(c); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("workload trace: trailing bytes after %d records", len(t.Records))
	}
	return t, nil
}

// walk is the one description of the UPWT format, walked by WriteTrace
// and ReadTrace alike.
func (t *Trace) walk(c *snap.Codec) error {
	c.Magic(traceMagic)
	version := traceVersion
	if snap.Uint(c, "version", &version, math.MaxUint8); c.Err() == nil && version != traceVersion {
		c.Fail("unsupported version %d (want %d)", version, traceVersion)
	}
	if snap.Uint(c, "rank count", &t.Ranks, MaxTraceRanks); c.Err() == nil && (t.Ranks < 2 || t.Ranks > MaxTraceRanks) {
		c.Fail("rank count %d below 2 or above %d", t.Ranks, MaxTraceRanks)
	}
	i, prev := 0, sim.Cycle(0)
	snap.Slice(c, "record count", &t.Records, 1<<32, func(rec *TraceRecord) {
		delta := uint64(rec.Cycle - prev)
		snap.Uint(c, "cycle delta", &delta, MaxTraceCycle)
		if c.Decoding() {
			rec.Cycle = prev + sim.Cycle(delta)
		}
		snap.Uint(c, "src rank", &rec.Src, uint64(t.Ranks))
		snap.Uint(c, "dst rank", &rec.Dst, uint64(t.Ranks))
		snap.Uint(c, "vnet", &rec.VNet, math.MaxInt8)
		snap.Uint(c, "class", &rec.Class, math.MaxInt8)
		snap.Uint(c, "flit count", &rec.Flits, MaxTraceFlits)
		if c.Err() == nil {
			if err := validateRecord(*rec, t.Ranks); err != nil {
				c.Fail("record %d: %v", i, err)
			} else if rec.Cycle < prev {
				c.Fail("record %d cycle %d precedes record %d cycle %d", i, rec.Cycle, i-1, prev)
			}
		}
		i, prev = i+1, rec.Cycle
	})
	if c.Err() != nil {
		return fmt.Errorf("workload trace: %w", c.Err())
	}
	return nil
}

func validateRecord(rec TraceRecord, ranks int) error {
	switch {
	case rec.Cycle < 0 || rec.Cycle > MaxTraceCycle:
		return fmt.Errorf("cycle %d out of range [0, %d]", rec.Cycle, MaxTraceCycle)
	case rec.Src < 0 || rec.Src >= ranks:
		return fmt.Errorf("src rank %d out of %d", rec.Src, ranks)
	case rec.Dst < 0 || rec.Dst >= ranks:
		return fmt.Errorf("dst rank %d out of %d", rec.Dst, ranks)
	case rec.Src == rec.Dst:
		return fmt.Errorf("self-send at rank %d", rec.Src)
	case rec.VNet < 0 || rec.VNet >= message.NumVNets:
		return fmt.Errorf("invalid vnet %d", rec.VNet)
	case rec.Class < message.ClassSyntheticCtrl || rec.Class > message.ClassDataAck:
		return fmt.Errorf("invalid class %d", rec.Class)
	case rec.Flits < 1 || rec.Flits > MaxTraceFlits:
		return fmt.Errorf("flit count %d out of range [1, %d]", rec.Flits, MaxTraceFlits)
	}
	return nil
}

// Replayer injects a recorded trace into a network open-loop: each
// record's packet is enqueued at exactly its recorded cycle, in record
// order. Replaying a trace against the configuration that produced it
// reproduces the live run bit-for-bit — the network sees the identical
// Enqueue sequence, so Stats and the final cycle match (the golden
// replay test enforces this).
type Replayer struct {
	net   *network.Network
	trace *Trace
	cores []topology.NodeID
	next  int
}

// NewReplayer builds a replayer; the trace's rank count must match the
// network's core count.
func NewReplayer(net *network.Network, t *Trace) (*Replayer, error) {
	cores := net.Topo.Cores()
	if t.Ranks != len(cores) {
		return nil, fmt.Errorf("workload trace: recorded over %d ranks but the system has %d cores", t.Ranks, len(cores))
	}
	return &Replayer{net: net, trace: t, cores: cores}, nil
}

// Done reports whether every record has been injected.
func (rp *Replayer) Done() bool { return rp.next >= len(rp.trace.Records) }

// Tick injects the records scheduled for this cycle. Call once per cycle
// before Network.Step.
func (rp *Replayer) Tick(cycle sim.Cycle) {
	for rp.next < len(rp.trace.Records) {
		rec := &rp.trace.Records[rp.next]
		if rec.Cycle > cycle {
			return
		}
		p := rp.net.AllocPacket()
		p.Src = rp.cores[rec.Src]
		p.Dst = rp.cores[rec.Dst]
		p.VNet = rec.VNet
		p.Size = rec.Flits
		p.Class = rec.Class
		rp.net.NI(p.Src).Enqueue(p, cycle)
		rp.next++
	}
}

// Run ticks and steps for exactly the given number of cycles (drive it
// to the live run's final cycle to compare Stats).
func (rp *Replayer) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		rp.Tick(rp.net.Cycle())
		rp.net.Step()
	}
}
