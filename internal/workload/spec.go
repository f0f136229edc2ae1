package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a parsed workload description (the `uppsim -workload` /
// `RunSpec.Workload` syntax): a collective name plus its knobs.
//
//	name[:key=val,key=val,...]
//
// Names: ring_allreduce, tree_allreduce, broadcast, reduce_scatter,
// all_to_all, param_server, training_step.
// Keys: flits (chunk size, default 5), root (broadcast, default 0),
// servers (param_server, default 4), iters (param_server inner
// iterations / Engine.Iterations for the others, default 1; training_step
// default 2), gap (training_step compute gap in cycles, default 200).
// An option the named workload does not read is refused, not ignored.
type Spec struct {
	Name    string
	Flits   int
	Root    int
	Servers int
	Iters   int
	Gap     int
}

// Names lists the buildable workloads in presentation order.
func Names() []string {
	return []string{"ring_allreduce", "tree_allreduce", "broadcast",
		"reduce_scatter", "all_to_all", "param_server", "training_step"}
}

// optionOwner names the one workload that reads each workload-specific
// option; flits and iters apply to every workload.
var optionOwner = map[string]string{"root": "broadcast", "servers": "param_server", "gap": "training_step"}

// ParseSpec parses the workload spec syntax above.
func ParseSpec(s string) (Spec, error) {
	name, rest, hasOpts := strings.Cut(strings.TrimSpace(s), ":")
	spec := Spec{Name: name, Flits: 5, Root: 0, Servers: 4, Iters: 1, Gap: 200}
	if spec.Name == "training_step" {
		spec.Iters = 2
	}
	known := false
	for _, n := range Names() {
		if n == spec.Name {
			known = true
		}
	}
	if !known {
		return Spec{}, fmt.Errorf("workload: unknown workload %q (want one of %s)", name, strings.Join(Names(), " "))
	}
	if !hasOpts {
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("workload: malformed option %q in %q (want key=value)", kv, s)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: option %s=%q is not an integer", key, val)
		}
		if only, ok := optionOwner[key]; ok && only != spec.Name {
			return Spec{}, fmt.Errorf("workload: option %s applies only to %s, not %s", key, only, spec.Name)
		}
		switch key {
		case "flits":
			spec.Flits = v
		case "root":
			spec.Root = v
		case "servers":
			spec.Servers = v
		case "iters":
			spec.Iters = v
		case "gap":
			spec.Gap = v
		default:
			return Spec{}, fmt.Errorf("workload: unknown option %q in %q", key, s)
		}
	}
	if spec.Flits < 1 || spec.Flits > MaxTraceFlits {
		return Spec{}, fmt.Errorf("workload: flits=%d out of range [1, %d]", spec.Flits, MaxTraceFlits)
	}
	if spec.Iters < 1 {
		return Spec{}, fmt.Errorf("workload: iters=%d out of range (>= 1)", spec.Iters)
	}
	return spec, nil
}

// Build constructs the program for n core ranks. For param_server the
// iters knob is built into the program (the server fan-in differs per
// iteration); for every other workload the caller repeats the program
// via Engine.Iterations.
func (s Spec) Build(n int) (Program, error) {
	switch s.Name {
	case "ring_allreduce":
		return RingAllReduce(n, s.Flits)
	case "tree_allreduce":
		return TreeAllReduce(n, s.Flits)
	case "broadcast":
		return Broadcast(n, s.Flits, s.Root)
	case "reduce_scatter":
		return ReduceScatter(n, s.Flits)
	case "all_to_all":
		return AllToAll(n, s.Flits)
	case "param_server":
		return ParamServer(n, s.Flits, s.Servers, s.Iters)
	case "training_step":
		return TrainingStep(n, s.Flits, s.Gap)
	}
	return Program{}, fmt.Errorf("workload: unknown workload %q", s.Name)
}

// EngineIterations returns the Engine.Iterations value for this spec:
// param_server repeats inside the program, everything else outside.
func (s Spec) EngineIterations() int {
	if s.Name == "param_server" {
		return 1
	}
	return s.Iters
}
