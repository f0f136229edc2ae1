package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expected.json pins the check-point state (kernelSim.checkpoint) of each
// kernel workload at the seeds listed in pinnedSeeds. A run at one of
// those seeds that reaches a different state has failed; other seeds fall
// back to the conservation, drain and snapshot checks. The sweep workload
// is pinned by results/fig7.csv instead (see checkSweep).
//
//go:embed expected.json
var expectedJSON []byte

var pinnedSeeds = []uint64{11, 12}

// expectedFile maps workload -> seed -> digest.
type expectedFile map[string]map[string]string

func expectedDigest(workload string, seed uint64) (string, bool) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	d, ok := f[workload][fmt.Sprint(seed)]
	return d, ok
}

// updateExpected reruns the kernel workloads to their check-points at the
// pinned seeds and rewrites expected.json in dir. It is for changes to the
// benchmark itself: a change to the simulator that moves these states has
// changed simulated results.
func updateExpected(dir string, o runOpts) error {
	f := expectedFile{}
	o.Budget, o.Setups, o.Traced, o.Div = 0, 1, false, 1
	// A stale pin must not fail the run that replaces it.
	expectedJSON = []byte("{}")
	for _, spec := range kernelSpecs() {
		f[spec.Name] = map[string]string{}
		for _, seed := range pinnedSeeds {
			o.Seed = seed
			r := runKernel(spec, o)
			if r.Failed > 0 {
				return fmt.Errorf("%v", r.Failures)
			}
			f[spec.Name][fmt.Sprint(seed)] = r.Digest
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", spec.Name, seed, r.Digest)
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "expected.json"), append(data, '\n'), 0o644)
}
