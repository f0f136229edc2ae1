package experiments

import (
	"fmt"
	"os"
	"strconv"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
)

// hostSettings is what the process environment asks of every simulation
// run here: how to execute it, never what to simulate — except routerArch,
// which is why the cache key stores the resolved architecture. A zero
// field means its variable is unset.
type hostSettings struct {
	kernel     string // UPP_KERNEL
	shards     int    // UPP_SHARDS
	routerArch string // UPP_ROUTER
	noPool     bool   // UPP_NOPOOL (any non-empty value)
	jobs       int    // UPP_JOBS
}

// hostEnv is the only reader of the UPP_* host variables: the libraries
// below experiments take a network.Config, the binaries above it go
// through Assemble and PoolOptions. It reads the environment on every
// call so a test's t.Setenv takes effect. Every malformed value is an
// error that names its variable.
func hostEnv() (hostSettings, error) {
	h := hostSettings{
		kernel:     os.Getenv("UPP_KERNEL"),
		routerArch: os.Getenv("UPP_ROUTER"),
		noPool:     os.Getenv("UPP_NOPOOL") != "",
	}
	// network.Config.Validate owns the sets of legal names.
	cfg := network.DefaultConfig()
	cfg.Kernel = h.kernel
	if err := cfg.Validate(); err != nil {
		return hostSettings{}, fmt.Errorf("UPP_KERNEL: %w", err)
	}
	cfg.RouterArch = h.routerArch
	if err := cfg.Validate(); err != nil {
		return hostSettings{}, fmt.Errorf("UPP_ROUTER: %w", err)
	}
	var err error
	if h.shards, err = positiveCount("UPP_SHARDS", os.Getenv("UPP_SHARDS")); err != nil {
		return hostSettings{}, err
	}
	if h.jobs, err = positiveCount("UPP_JOBS", os.Getenv("UPP_JOBS")); err != nil {
		return hostSettings{}, err
	}
	return h, nil
}

// positiveCount parses the value of a count variable; empty is 0 (unset).
func positiveCount(name, value string) (int, error) {
	if value == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(value)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("%s: invalid value %q (want a positive integer)", name, value)
	}
	return v, nil
}

// arch resolves a run's router microarchitecture: the explicit choice,
// else UPP_ROUTER, else iq.
func (h hostSettings) arch(explicit string) string {
	switch {
	case explicit != "":
		return explicit
	case h.routerArch != "":
		return h.routerArch
	}
	return router.ArchIQ
}
