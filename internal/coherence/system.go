package coherence

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// The substrate's geometry and timing, after Table II; every run uses
// them.
const (
	// l1Sets x l1Ways is the private cache (Table II's 32KB L1 at 64B
	// lines ~ 512 blocks: 128x4).
	l1Sets, l1Ways = 128, 4
	// directories is the number of interposer-resident directories
	// (Table II: 8).
	directories = 8
	// injQueueCap bounds NI injection queues; PEs hold messages in their
	// internal output queues when full.
	injQueueCap = 8
	// outQueueGate defers request processing while a PE's output queue is
	// this long (the proof-case-2 back-pressure).
	outQueueGate = 12
	// l2Sets x l2Ways sizes the shared L2 bank co-located with each
	// directory (Table II: 1MB shared L2; modeled as the directory-side
	// cache that decides between L2-hit and DRAM-miss response latency).
	l2Sets, l2Ways = 1024, 8
	// l2HitLatency and dramLatency delay the directory's data responses
	// (cycles) depending on whether the block hits the L2 bank.
	l2HitLatency, dramLatency = 8, 60
)

// System couples a network with cores and directories running the MESI
// protocol under a workload profile.
type System struct {
	Net  *network.Network
	Work Workload

	cores []*Core
	dirs  map[topology.NodeID]*Directory
	// dirNodes maps address slices to directory nodes.
	dirNodes []topology.NodeID

	txnSeq uint64

	// Stats.
	Requests   uint64
	Forwards   uint64
	Responses  uint64
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64
	L2Misses   uint64
	Writebacks uint64
}

// New builds a coherence system over net. The workload's RNG streams are
// seeded from seed.
func New(net *network.Network, work Workload, seed uint64) (*System, error) {
	s := &System{Net: net, Work: work, dirs: make(map[topology.NodeID]*Directory)}

	// Directories live on the interposer, spread evenly (Table II: 8
	// directories on the interposer).
	interposer := net.Topo.Interposer
	if directories > len(interposer) {
		return nil, fmt.Errorf("coherence: %d directories exceed %d interposer routers", directories, len(interposer))
	}
	for i := 0; i < directories; i++ {
		node := interposer[i*len(interposer)/directories]
		d := &Directory{sys: s, node: node, blocks: make(map[uint64]*dirEntry), l2: newL1(l2Sets, l2Ways)}
		s.dirs[node] = d
		s.dirNodes = append(s.dirNodes, node)
		ni := net.NI(node)
		ni.Consume = d.consume
	}

	master := sim.NewRNG(seed)
	for i, cn := range net.Topo.Cores() {
		c := &Core{
			sys:   s,
			node:  cn,
			index: i,
			l1:    newL1(l1Sets, l1Ways),
			rng:   master.Split(uint64(i)),
		}
		s.cores = append(s.cores, c)
		net.NI(cn).Consume = c.consume
	}
	return s, nil
}

// homeDir returns the directory node for a block address.
func (s *System) homeDir(addr uint64) topology.NodeID {
	return s.dirNodes[addr%uint64(len(s.dirNodes))]
}

// send queues a protocol message from a PE's output queue logic; callers
// go through Core.send / Directory.send which manage their queues.
func (s *System) newPacket(src, dst topology.NodeID, class message.Class, addr uint64) *message.Packet {
	s.txnSeq++
	// Recycled from the network's pool; released by the destination NI
	// after consume. PEs snapshot the fields they need inside consume and
	// never retain the packet pointer afterwards.
	p := s.Net.AllocPacket()
	p.Src = src
	p.Dst = dst
	p.Class = class
	p.Addr = addr
	p.Txn = s.txnSeq
	switch class {
	case message.ClassGetS, message.ClassGetM:
		p.VNet = message.VNetRequest
		p.Size = message.ControlPacketFlits
	case message.ClassPutM:
		p.VNet = message.VNetRequest
		p.Size = message.DataPacketFlits
	case message.ClassFwdGetS, message.ClassFwdGetM, message.ClassInv:
		p.VNet = message.VNetForward
		p.Size = message.ControlPacketFlits
	case message.ClassData:
		p.VNet = message.VNetResponse
		p.Size = message.DataPacketFlits
	case message.ClassDataAck:
		p.VNet = message.VNetResponse
		p.Size = message.ControlPacketFlits
	default:
		panic("coherence: unknown class")
	}
	switch p.VNet {
	case message.VNetRequest:
		s.Requests++
	case message.VNetForward:
		s.Forwards++
	default:
		s.Responses++
	}
	return p
}

// Done reports whether every core has completed its access quota and all
// protocol traffic — including writebacks still queued inside PEs — has
// drained.
func (s *System) Done() bool {
	for _, c := range s.cores {
		if !c.done() {
			return false
		}
	}
	for _, dn := range s.dirNodes {
		if len(s.dirs[dn].outQ) != 0 {
			return false
		}
	}
	return s.Net.Quiesced()
}

// Step advances cores, PEs' output queues and the network by one cycle.
func (s *System) Step() {
	cycle := s.Net.Cycle()
	for _, c := range s.cores {
		c.tick(cycle)
		c.drainOut(cycle)
	}
	for _, node := range s.dirNodes {
		s.dirs[node].drainOut(cycle)
	}
	s.Net.Step()
}

// Run executes the workload to completion, returning the runtime in
// cycles. It fails if the system stops making progress (a deadlock under
// a scheme without recovery) or exceeds maxCycles.
func (s *System) Run(maxCycles int) (sim.Cycle, error) {
	start := s.Net.Cycle()
	lastProgress := start
	var lastConsumed uint64
	for {
		if s.Done() {
			return s.Net.Cycle() - start, nil
		}
		if s.Net.Cycle()-start > sim.Cycle(maxCycles) {
			return 0, fmt.Errorf("coherence: workload %s exceeded %d cycles (%d/%d cores done)",
				s.Work.Name, maxCycles, s.doneCores(), len(s.cores))
		}
		if c := s.Net.Stats.ConsumedPackets + s.coreProgress(); c != lastConsumed {
			lastConsumed = c
			lastProgress = s.Net.Cycle()
		}
		if s.Net.Cycle()-lastProgress > 50000 {
			return 0, fmt.Errorf("coherence: workload %s deadlocked (%d/%d cores done)",
				s.Work.Name, s.doneCores(), len(s.cores))
		}
		s.Step()
	}
}

func (s *System) doneCores() int {
	n := 0
	for _, c := range s.cores {
		if c.done() {
			n++
		}
	}
	return n
}

func (s *System) coreProgress() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += uint64(c.completed)
	}
	return n
}

// Cores exposes core handles (tests).
func (s *System) Cores() []*Core { return s.cores }
