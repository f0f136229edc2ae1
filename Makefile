# Common entry points. Everything is plain `go` — the Makefile is just a
# memo of the useful invocations.

GO ?= go

.PHONY: all build test test-short race bench bench-smoke bench-pairs loc collectives-golden router-golden profile figures figures-full demo fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem

# The benchmark is `go run ./bench` (bench/README.md, BENCHMARK.json; judge
# a change with `go run ./bench -compare base.json new.json`). This is its
# correctness half on one-second workloads (~30 s): it exits non-zero on
# any expected.json digest, fig7 row, conservation or snapshot mismatch.
# CI runs it as a hard gate; timings from it are not meaningful.
bench-smoke:
	$(GO) run ./bench -seconds 1

# Paired runs of one workload at BASE and at the working tree — how a
# performance claim is judged (alternating order, medians, quartiles,
# pairs won on METRIC; see scripts/bench-pairs.sh). ~25 s a pair. JSON=FILE
# appends the record to FILE (BENCH_trajectory.json for a claim); SEED and
# SECS pass through to the script.
BASE ?= HEAD
WORKLOAD ?= mesh2048_uniform
N ?= 10
METRIC ?= cycles_per_s
bench-pairs:
	sh scripts/bench-pairs.sh $(if $(JSON),-json $(JSON)) $(BASE) $(WORKLOAD) $(N) $(METRIC)

# Non-test lines of Go in internal/ and cmd/ — the tracked size of the
# simulator (ROADMAP aim 2) — per package, then the total. Then the lines
# that assemble a simulation in the non-test files of internal/experiments
# and cmd/uppsim: experiments.Assemble is the one place (its
# topology.Build / BuildScale pair, plus KillableInterposerLinks' scratch
# topology), so a second hand-rolled assembly shows up as a number. Then
# the non-test lines of internal/snap and every internal/*/snapshot.go:
# each snapshot section is one description walked in both directions
# (snap.Codec), so a section written twice shows up as a number too. Then
# the non-test lines outside internal/snap that import encoding/binary or
# bufio: snap.Codec is the one codec, and the UPWR checkpoint header and
# the UPWT trace are descriptions on it too, so every untrusted byte is
# read under one bounds discipline and a second hand-written codec shows
# up as a number. Then the non-test lines outside internal/network that name the oracle kernel
# or a per-router activity test: the oracle is a mode of Network.Step, so
# no scheme or checker forks on it. Then the non-test lines of internal/
# and cmd/ that name SchemeOverride, UPPWithThreshold or HardenedUPP: a
# scheme is data on RunSpec (RunSpec.UPP), never a closure or a named
# constructor, so every spec has a content address. Then the lines that
# name WorkloadSpec, WorkloadPoint or RunWorkload: a closed-loop run is a
# RunSpec with Workload set, run by experiments.Run into a Point, not a
# second run path. Then the lines that name GenConfig, LinkKill, LinkAdd,
# ChipletKill, RunChaos, RunReconfig or reconfig.Config: a fault plan is
# one faults.ParseSpec string whose persistent events are one list, and
# every soak runs through experiments.Soak. Then the lines that name
# findCDGCycle, walkPair or KernelBench, and the lines that name the DFS
# colour grey: every dependency graph (the deadlock certificate,
# composable's CDG, the reconfiguration union CDG) is searched by the one
# routing.FindCycle, whose three grey lines are the ceiling, so a second
# cycle search shows up as a number. Then the lines that name ChannelID,
# SortedKeys or map[ChannelID]: every channel dependency graph is one
# routing.CDG, a channel per router input port and a dependency per bit of
# a flat output mask, built by one whole-system route walk, so a second
# graph representation (reconfig's deleted map-keyed per-layer CDG) shows
# up as a number. Then the lines that select a deleted
# setting: link latency (router.LinkDelay), the ejection depth, UPP's
# signal hardening (on exactly when a fault injector is attached) and the
# remote-control and coherence parameters are constants that no run varies,
# so a knob grown back shows up as a number. Then the non-test lines of
# internal/ and cmd/ that name a deleted one-scheme hook
# (OnFlitArrived, OnPacketEjected, a Policy method, composable's
# NewScheme, UPP's OnRouterIdle and CheckRetired): what only one scheme
# varies is data it installs in Attach or a network-defined SchemeCall, not
# a Scheme method, and retirement tells the scheme nothing (a woken host's
# first detection scan zeroes its stale counters). Then the non-test
# lines of internal/ and cmd/ that name a hand-driven figure
# runner (RunFullSystem, FullSystemResult, FullSystemSubset, LoadBalance):
# every figure that simulates is an Experiments() entry whose runs are
# RunSpecs through experiments.Run. Then the non-test lines of internal/
# and cmd/ that name composable's deleted search structures (a map[Turn]
# restriction set, turnAllowed, chanNode): the search runs on flat
# per-channel arrays with one banned-output mask per channel, so a hashed
# turn lookup grown back shows up as a number. Then the lines that name
# maxRestrictions: the search ends because every restriction bans a new
# boundary-router turn, bounded by the topology's turn count, not by a
# fixed cap that larger systems exceed. Then BaseScheme's
# no-op stubs in scheme.go: the methods every scheme without that hook
# pads out. Then the non-test lines of internal/ and cmd/ that name
# Inert(), skipIdleCycles, canSkipIdleCycles or wheelPending: the clock
# advances one Step at a time, because no measured run ever reached the
# deleted idle-cycle fast-forward, and its safety rested on every scheme
# certifying its own idleness; a jump grown back shows up as a number.
# Then the non-test lines of internal/topology that call t.addLink:
# every system is a chiplet list built by one construction loop (build,
# which BuildScale and BuildHetero end in), so a second builder shows up
# as a number. Then the lines of internal/ and cmd/ that name
# validateDeep: topology validation is exact at every size, with no size
# threshold or build tag switching a check off. Then the lines of
# internal/ and cmd/ that name diagDeep or censusDebug: the network's state
# checks (CheckConservation, CheckQuiescent) are exact at every size too.
# Then the files under internal/ that carry //go:build uppdebug: the tag
# sets one constant, message.Debug, so a second per-package switch shows
# up as a number. Then the non-test lines of internal/ and cmd/ that name
# code no run executed and only its own tests called (DecodeSignal,
# EncodeSized, PacketRef, EstimateDetailed, IsTerminating,
# IsInterChiplet, CoreIndex, assertEncodable) or a pass the kernel
# folded away (retireBlock, phaseRetire: routers retire in the walk that
# steps them): UPP checks its Fig. 4 signal widths once at Attach
# (message.ReqStopBits), popup.holds is the one packet-generation check,
# and power.Estimate the one energy model, so a wire codec, a second
# model or a separate router-retirement pass grown back shows up as a
# number.
# Then the non-test lines of internal/ and cmd/ that read
# the process environment: a run's configuration comes from its RunSpec,
# the PoolOptions and the binaries' flags, and the one variable is the
# cache directory (experiments.CacheDir, a deployment path), so a hidden
# knob grown back shows up as a number. Last, the non-test lines of
# internal/remotectl that name a Go map: remote control's per-cycle state
# is flat (boundaries in a slice indexed per node, a fixed set of grants
# and slots per boundary, one pending request per source and VNet), so a
# hashed lookup grown back into its control plane shows up as a number.
# Then the non-test lines of internal/ and cmd/ that import runtime/pprof:
# profiling is go test's (-cpuprofile, -memprofile on BenchmarkStep, see
# the profile target), so a profiling binary grown back shows up as a
# number. Last, the non-test lines outside internal/topology that assign
# a link's Faulty flag: Topology.SetFaulty is its one writer, and it keeps
# the per-node faulty-port masks XY routes from in step, so a write that
# would leave a mask stale shows up as a number. Last, the non-test lines
# of internal/ and cmd/ that declare or slice the router's per-port view
# types (type InPort, type OutPort, []InPort, []OutPort; the field
# VC.OutPort is not one): readers slice the flat storage on demand
# (Router.InVCs, OutCredits, OutBusy), so per-port views grown back into
# every router show up as a number.
# Last, the non-test lines of internal/ and cmd/ that name warmState,
# warmHits, warmMisses or a "warm" cache directory: the run cache keeps
# finished Points only (results/<hash>.json), because every figure
# measures a point on one schedule and no warm-start checkpoint it wrote
# was ever read back, so a warm store grown back shows up as a number.
# The target fails when a count exceeds its ceiling; CI's
# test job runs it.
SNAPSHOT_LINES = 1415
DELETED_API = DecodeSignal|EncodeSized|PacketRef|EstimateDetailed|IsTerminating|IsInterChiplet|CoreIndex|assertEncodable|retireBlock|phaseRetire
DELETED_SETTINGS = \.LinkLatency\b|\.InterTileLatency|\.EjectionDepth|\.SignalTimeout|\.MaxSignalRetries|SlotsPerBoundary|HandshakeRTT|\.MSHRs|remotectl\.Config|coherence\.Config
loc:
	@for d in internal/* cmd 'internal cmd'; do \
		printf '%-22s %6d\n' "$$d" $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done | sed 's/^internal cmd /total        /'
	@set -- 1 1 3; for pat in 'network\.New(\|NewNetwork(' 'reconfig\.Attach(' 'topology\.Build'; do \
		n=$$(find internal/experiments cmd/uppsim -name '*.go' ! -name '*_test.go' | xargs cat | grep -c "$$pat"); \
		printf 'calls %-28s %d (ceiling %d)\n' "$$pat" $$n $$1; \
		[ $$n -le $$1 ] || fail=1; shift; \
	done; [ -z "$$fail" ]
	@n=$$(ls internal/snap/*.go internal/*/snapshot.go | grep -v _test.go | xargs cat | wc -l); \
		printf 'lines %-28s %d (ceiling %d)\n' 'snap + */snapshot.go' $$n $(SNAPSHOT_LINES); \
		[ $$n -le $(SNAPSHOT_LINES) ]
	@n=$$(find internal cmd -path internal/snap -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | grep -c '"encoding/binary"\|"bufio"'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'encoding/binary|bufio' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -path internal/network -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | grep -c 'KernelNaive\|RouterActive'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'KernelNaive|RouterActive' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'SchemeOverride\|UPPWithThreshold\|HardenedUPP'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'SchemeOverride|UPPWithThreshold|HardenedUPP' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'WorkloadSpec\|WorkloadPoint\|RunWorkload'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'WorkloadSpec|WorkloadPoint|RunWorkload' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'GenConfig\|LinkKill\|LinkAdd\|ChipletKill\|RunChaos\|RunReconfig\|reconfig\.Config'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'GenConfig|LinkKill|LinkAdd|ChipletKill|RunChaos|RunReconfig|reconfig.Config' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'findCDGCycle\|walkPair\|KernelBench'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'findCDGCycle|walkPair|KernelBench' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'grey'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'grey (DFS colour)' $$n 3; \
		[ $$n -le 3 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'ChannelID\|SortedKeys\|map\[ChannelID\]'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'ChannelID|SortedKeys|map[ChannelID]' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE '$(DELETED_SETTINGS)'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'deleted settings' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'OnFlitArrived\|OnPacketEjected\|) Policy() routing\|NewScheme(\|OnRouterIdle\|CheckRetired'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'one-scheme hooks' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'RunFullSystem\|FullSystemResult\|FullSystemSubset\|LoadBalance('); \
		printf 'lines %-28s %d (ceiling %d)\n' 'hand-driven figure runners' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE 'map\[Turn\]|turnAllowed|chanNode\('); \
		printf 'lines %-28s %d (ceiling %d)\n' 'map[Turn]|turnAllowed|chanNode(' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'maxRestrictions'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'maxRestrictions' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(grep -c '^func (BaseScheme)' internal/network/scheme.go); \
		printf 'lines %-28s %d (ceiling %d)\n' 'BaseScheme stubs' $$n 5; \
		[ $$n -le 5 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'Inert()\|skipIdleCycles\|canSkipIdleCycles\|wheelPending'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'Inert()|skipIdleCycles|canSkipIdleCycles|wheelPending' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal/topology -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 't\.addLink('); \
		printf 'lines %-28s %d (ceiling %d)\n' 't.addLink( in topology' $$n 1; \
		[ $$n -le 1 ]
	@n=$$(find internal cmd -name '*.go' | xargs cat | grep -c 'validateDeep'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'validateDeep' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' | xargs cat | grep -c 'diagDeep\|censusDebug'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'diagDeep|censusDebug' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(grep -rlx '//go:build uppdebug' internal | wc -l); \
		printf 'files %-28s %d (ceiling %d)\n' '//go:build uppdebug' $$n 1; \
		[ $$n -le 1 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE '$(DELETED_API)'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'deleted dead code' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'os\.Getenv\|os\.LookupEnv\|os\.Environ'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'os.Getenv|LookupEnv|Environ' $$n 1; \
		[ $$n -le 1 ]
	@n=$$(find internal/remotectl -name '*.go' ! -name '*_test.go' | xargs cat | grep -c 'map\['); \
		printf 'lines %-28s %d (ceiling %d)\n' 'map[ in remotectl' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -c '"runtime/pprof"'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'runtime/pprof' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -path internal/topology -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | grep -cE '\.Faulty[[:space:]]*=([^=]|$$)'); \
		printf 'lines %-28s %d (ceiling %d)\n' '.Faulty = outside topology' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE 'type (InPort|OutPort)\b|\[\](InPort|OutPort)\b'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'per-port router views' $$n 0; \
		[ $$n -le 0 ]
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE 'warmState|warmHits|warmMisses|"warm"'); \
		printf 'lines %-28s %d (ceiling %d)\n' 'warm-start cache store' $$n 0; \
		[ $$n -le 0 ]

# Regenerate the committed collective-workload golden CSV
# (results/collectives.csv). TestCollectivesGolden pins the artifact
# bit-identically across all three kernels and any worker count — rerun
# this target (and commit the diff) after any intentional change to the
# collective engine, the schemes, or the experiment grid.
collectives-golden:
	$(GO) run ./cmd/figures -exp collectives -csv results -q

# Regenerate the committed router-comparison golden CSV
# (results/router_compare.csv); TestRouterCompareGolden pins it the same
# way across kernels and worker counts.
router-golden:
	$(GO) run ./cmd/figures -exp router_compare -csv results -q

# CPU + heap pprof of BenchmarkStep's below-saturation row (UPP on the
# baseline at 0.05 flits/cycle/node, active kernel) over a 200 000-cycle
# window, every allocation attributed (-memprofilerate 1). The 0.2 row is
# past saturation: its sources' backlog grows for the whole window, so its
# profile is the backlog's (Pool.Get ~79 % of alloc_objects, and
# runtime.pcvalue ~13 % of CPU under -memprofilerate 1), not the cycle's.
# The profiles cover the whole test binary, so the row's assembly and
# 2 000 warm-up cycles are in them too. Inspect with `go tool pprof
# -sample_index=alloc_objects profiles/mem.pprof` and `go tool pprof
# profiles/cpu.pprof`; profile another row by changing -bench. go test
# leaves its binary behind as uppnoc.test.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'Step/baseline/rate=0.05/active$$' -benchtime 200000x \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -memprofilerate 1 .

# Regenerate the paper's evaluation (quick durations). Runs fan out across
# GOMAXPROCS workers (override with `-jobs`); the output is
# bit-identical at any worker count. ~30 min single-threaded, divided by
# roughly the core count otherwise.
figures:
	$(GO) run ./cmd/figures -exp all -csv results/ | tee results/results_all.txt

# The paper's full 10k+100k-cycle methodology (hours).
figures-full:
	$(GO) run ./cmd/figures -exp all -full -csv results/ | tee results/results_all.txt

# The five-minute tour: watch a deadlock form and UPP recover it.
demo:
	$(GO) run ./cmd/deadlock

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf results/ results_all.txt results_ablation.txt test_output.txt bench_output.txt
