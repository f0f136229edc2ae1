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
# pairs won; see scripts/bench-pairs.sh). ~25 s a pair.
BASE ?= HEAD
WORKLOAD ?= mesh2048_uniform
N ?= 10
bench-pairs:
	sh scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(N)

# Non-test lines of Go in internal/ and cmd/ — the tracked size of the
# simulator (ROADMAP aim 2) — per package, then the total. Then the lines
# that assemble a simulation in the non-test files of internal/experiments,
# cmd/uppsim and cmd/profile: experiments.Assemble is the one place (its
# topology.Build / BuildScale pair, plus KillableInterposerLinks' scratch
# topology), so a second hand-rolled assembly shows up as a number. Last,
# the non-test lines of internal/snap and every internal/*/snapshot.go:
# each snapshot section is one description walked in both directions
# (snap.Codec), so a section written twice shows up as a number too. The
# target fails when a count exceeds its ceiling; CI's test job runs it.
SNAPSHOT_LINES = 1544
loc:
	@for d in internal/* cmd 'internal cmd'; do \
		printf '%-22s %6d\n' "$$d" $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done | sed 's/^internal cmd /total        /'
	@set -- 1 1 3; for pat in 'network\.New(\|NewNetwork(' 'reconfig\.Attach(' 'topology\.Build'; do \
		n=$$(find internal/experiments cmd/uppsim cmd/profile -name '*.go' ! -name '*_test.go' | xargs cat | grep -c "$$pat"); \
		printf 'calls %-28s %d (ceiling %d)\n' "$$pat" $$n $$1; \
		[ $$n -le $$1 ] || fail=1; shift; \
	done; [ -z "$$fail" ]
	@n=$$(ls internal/snap/*.go internal/*/snapshot.go | grep -v _test.go | xargs cat | wc -l); \
		printf 'lines %-28s %d (ceiling %d)\n' 'snap + */snapshot.go' $$n $(SNAPSHOT_LINES); \
		[ $$n -le $(SNAPSHOT_LINES) ]

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

# CPU + heap pprof of the saturation workload (every allocation
# attributed). Inspect with `go tool pprof -sample_index=alloc_objects
# profiles/mem.pprof`.
profile:
	$(GO) run ./cmd/profile -cpu profiles/cpu.pprof -mem profiles/mem.pprof

# Regenerate the paper's evaluation (quick durations). Runs fan out across
# GOMAXPROCS workers (override with UPP_JOBS or `-jobs`); the output is
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
