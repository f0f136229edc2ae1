package experiments

import (
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// TestHostEnv is the table for the one place the UPP_* host variables are
// read: every well-formed value lands in its hostSettings field, and every
// malformed one — unknown names and unparsable or non-positive counts
// alike — is an error that names the variable.
func TestHostEnv(t *testing.T) {
	vars := []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_NOPOOL", "UPP_JOBS"}
	for _, tc := range []struct {
		name    string
		env     map[string]string
		want    hostSettings
		wantErr string // the variable the error must name; "" = no error
	}{
		{name: "unset", want: hostSettings{}},
		{name: "all set",
			env:  map[string]string{"UPP_KERNEL": "parallel", "UPP_SHARDS": "4", "UPP_ROUTER": "voq", "UPP_NOPOOL": "1", "UPP_JOBS": "3"},
			want: hostSettings{kernel: network.KernelParallel, shards: 4, routerArch: router.ArchVOQ, noPool: true, jobs: 3}},
		{name: "naive kernel", env: map[string]string{"UPP_KERNEL": "naive"}, want: hostSettings{kernel: network.KernelNaive}},
		{name: "oq router", env: map[string]string{"UPP_ROUTER": "oq"}, want: hostSettings{routerArch: router.ArchOQ}},
		{name: "nopool any value", env: map[string]string{"UPP_NOPOOL": "0"}, want: hostSettings{noPool: true}},
		{name: "unknown kernel", env: map[string]string{"UPP_KERNEL": "turbo"}, wantErr: "UPP_KERNEL"},
		{name: "unknown router", env: map[string]string{"UPP_ROUTER": "banyan"}, wantErr: "UPP_ROUTER"},
		{name: "shards not a number", env: map[string]string{"UPP_SHARDS": "four"}, wantErr: "UPP_SHARDS"},
		{name: "shards zero", env: map[string]string{"UPP_SHARDS": "0"}, wantErr: "UPP_SHARDS"},
		{name: "shards negative", env: map[string]string{"UPP_SHARDS": "-3"}, wantErr: "UPP_SHARDS"},
		{name: "jobs not a number", env: map[string]string{"UPP_JOBS": "many"}, wantErr: "UPP_JOBS"},
		{name: "jobs zero", env: map[string]string{"UPP_JOBS": "0"}, wantErr: "UPP_JOBS"},
		{name: "jobs negative", env: map[string]string{"UPP_JOBS": "-2"}, wantErr: "UPP_JOBS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range vars {
				t.Setenv(v, tc.env[v])
			}
			got, err := hostEnv()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestAssembleAppliesHost: the host settings reach the network through
// Assemble, an explicit RunSpec field beats its variable, and a malformed
// variable fails the construction by name.
func TestAssembleAppliesHost(t *testing.T) {
	// 512 routers: eight 64-router blocks, so the worker counts below are
	// not clamped.
	sc := topology.ScaleSmallConfig()
	spec := RunSpec{Scale: &sc, Scheme: SchemeNone}
	t.Setenv("UPP_KERNEL", "parallel")
	t.Setenv("UPP_SHARDS", "5")
	t.Setenv("UPP_ROUTER", "oq")
	t.Setenv("UPP_NOPOOL", "1")
	s, err := Assemble(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Net; n.Kernel() != network.KernelParallel || n.Shards() != 5 || n.RouterArch() != router.ArchOQ || n.Pooling() {
		t.Fatalf("env not applied: kernel %q shards %d arch %q pooling %v", n.Kernel(), n.Shards(), n.RouterArch(), n.Pooling())
	}
	explicit := spec
	explicit.Kernel, explicit.Shards, explicit.RouterArch = network.KernelParallel, 3, router.ArchVOQ
	if s, err = Assemble(explicit); err != nil {
		t.Fatal(err)
	}
	if n := s.Net; n.Shards() != 3 || n.RouterArch() != router.ArchVOQ {
		t.Fatalf("explicit spec lost to env: shards %d arch %q", n.Shards(), n.RouterArch())
	}
	t.Setenv("UPP_SHARDS", "lots")
	if _, err := Assemble(spec); err == nil || !strings.Contains(err.Error(), "UPP_SHARDS") {
		t.Fatalf("err = %v, want one naming UPP_SHARDS", err)
	}
}
