package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"uppnoc/internal/network"
	"uppnoc/internal/sim"
)

// tracedScheme times the scheme's two per-cycle hooks from outside: it
// embeds the real scheme, so every other method forwards unchanged, and
// the network calls the hooks through it. It also samples the awake-router
// list, which is only valid inside EndOfCycle.
type tracedScheme struct {
	network.Scheme
	net *network.Network

	startNs, endNs time.Duration
	awakeSum       uint64
}

func (t *tracedScheme) reset() { t.startNs, t.endNs, t.awakeSum = 0, 0, 0 }

func (t *tracedScheme) StartOfCycle(c sim.Cycle) {
	t0 := time.Now()
	t.Scheme.StartOfCycle(c)
	t.startNs += time.Since(t0)
}

func (t *tracedScheme) EndOfCycle(c sim.Cycle) {
	t.awakeSum += uint64(len(t.net.AwakeRouterIDs()))
	t0 := time.Now()
	t.Scheme.EndOfCycle(c)
	t.endNs += time.Since(t0)
}

// span is one traced interval. Per-cycle calls are accumulated into one
// span per layer per timing window: Start/End bracket the window, BusyNs
// is the time spent inside the Calls calls. A layer's self time is its
// BusyNs minus its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the trace's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	BusyNs  int64 `json:"busy_ns"`
	Calls   int64 `json:"calls"`
}

// tracer keeps a workload's spans in memory until the run ends.
type tracer struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	epoch    time.Time
}

func newTracer(workload string, seed uint64) *tracer {
	return &tracer{Workload: workload, Seed: seed, epoch: time.Now()}
}

// add records a span of calls calls that were busy for busy between start
// and end, and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, busy time.Duration, calls int) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		BusyNs: busy.Nanoseconds(), Calls: int64(calls),
	})
	return id
}

// call records one call that started at start and has just returned.
func (t *tracer) call(parent int, name string, start time.Time) int {
	end := time.Now()
	return t.add(parent, name, start, end, end.Sub(start), 1)
}

// begin opens a span that encloses spans still to be recorded; finish
// closes it.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, 0, 1)
}

func (t *tracer) finish(id int) {
	s := &t.Spans[id-1]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	s.BusyNs = s.EndNs - s.StartNs
}

// phase is one step of a set-up: a layer call and how long it took.
type phase struct {
	Name  string
	D     time.Duration
	Calls int
}

// addSetup records one set-up that began at start as a span with a child
// per phase, laid end to end.
func (t *tracer) addSetup(parent int, start time.Time, phases []phase) {
	var total time.Duration
	for _, ph := range phases {
		total += ph.D
	}
	id := t.add(parent, "setup", start, start.Add(total), total, 1)
	for _, ph := range phases {
		t.add(id, ph.Name, start, start.Add(ph.D), ph.D, ph.Calls)
		start = start.Add(ph.D)
	}
}

// addWindows records the timing windows of a traced kernel run: per
// window one span for the traffic source's Tick, one for Network.Step and
// under it one for each scheme hook.
func (t *tracer) addWindows(parent int, tickName string, wins []window) {
	for _, w := range wins {
		end := w.Start.Add(w.Wall)
		id := t.add(parent, "window", w.Start, end, w.Wall, 1)
		t.add(id, tickName, w.Start, end, w.Tick, w.Cycles)
		step := t.add(id, "Network.Step", w.Start, end, w.Step, w.Cycles)
		t.add(step, "Scheme.StartOfCycle", w.Start, end, w.StartOfCycle, w.Cycles)
		t.add(step, "Scheme.EndOfCycle", w.Start, end, w.EndOfCycle, w.Cycles)
	}
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.Workload+".json"), data, 0o644)
}
