# Tier-1 verification (what every PR must keep green) plus the race
# gate for the serving layer. CI runs `make ci`.

GO ?= go

# Build identity stamped into the binaries (cadd -version, the
# cadd_build_info metric and /statusz). Falls back to "dev" outside a
# git checkout.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X dyngraph/internal/buildinfo.Version=$(VERSION)

.PHONY: tier1 vet build test race ci bench benchsmoke pushbench-smoke trace-smoke fuzz-smoke crash-smoke hibernate-smoke incremental-smoke cluster-smoke obs-smoke grow-smoke install

tier1: vet build test

vet:
	$(GO) vet ./...

# The nested pushbench module (the end-to-end push benchmark) compiles
# against this module's internal packages; building it here makes an
# API change that breaks the benchmark fail tier-1, not the benchmark
# run.
build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...
	cd pushbench && $(GO) build -o /dev/null .

# Install the version-stamped binaries into GOBIN.
install:
	$(GO) install -ldflags '$(LDFLAGS)' ./cmd/...

test:
	$(GO) test ./...

# The race detector gates the serving layer (and everything else):
# internal/service's stress test fires overlapping snapshot POSTs at
# multiple streams and must reproduce sequential detector results.
race:
	$(GO) test -race ./...

ci: tier1 race

# Full Go benchmark pass, then the streaming, hibernation, incremental
# and cluster experiments with their machine-readable artifacts.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/cadbench -exp stream -benchout BENCH_stream.json
	$(GO) run ./cmd/cadbench -exp hibernate -benchout BENCH_hibernate.json
	$(GO) run ./cmd/cadbench -exp incremental -n 5000 -benchout BENCH_incremental.json
	$(GO) run ./cmd/cadbench -exp cluster -n 5000 -benchout BENCH_cluster.json

# One-iteration compile-and-run of every benchmark: catches bit-rotted
# benchmark code without paying for real measurements. CI runs this.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# End-to-end push benchmark smoke: pushbench is a nested module, so
# tier-1 `go test ./...` skips it. Its own tests pin the workload shapes
# (n, m, exact edits per push), the build-mode checks and the planted
# clique being flagged by an in-process detector replay — the checks
# that keep a solver change from silently changing what the benchmark
# measures. Takes a few seconds; CI runs this.
pushbench-smoke:
	cd pushbench && $(GO) test -count=1 .

# Incremental-updates smoke: a small run of the warm-vs-Woodbury push
# benchmark plus the incremental path's differential test suite — the
# oracle-agreement, fallback and verify-skip pins in commute/core and
# the end-to-end streaming variant in service. CI runs this.
incremental-smoke:
	$(GO) run ./cmd/cadbench -exp incremental -n 1000
	$(GO) test -race -run 'TestIncremental|TestOnlineIncremental|TestWoodbury|TestIncidence' -count=1 ./internal/solver ./internal/commute ./internal/core ./internal/service

# End-to-end check of the tracing pipeline: run cadrun over the toy
# dataset with -trace-out and validate the Chrome trace_event document
# it writes. CI runs this.
trace-smoke:
	$(GO) run ./cmd/datagen -dataset toy -out /tmp/cad-trace-smoke.txt
	$(GO) run ./cmd/cadrun -in /tmp/cad-trace-smoke.txt -trace-out /tmp/cad-trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/cad-trace-smoke.json

# Short coverage-guided run of the edge-list parser fuzzer: catches
# parser regressions (NaN/Inf/negative-weight acceptance, allocation
# bombs) beyond the checked-in seed corpus. CI runs this.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadSequence -fuzztime=10s ./internal/graph

# Memory-governance smoke: a small run of the hibernate benchmark
# (create → hibernate → rehydrate on the real serving stack) plus the
# hibernation test suite — the byte-identical /report equivalence, the
# governor's watermark and idle policies, and the crash-mid-hibernation
# cycle. CI runs this.
hibernate-smoke:
	$(GO) run ./cmd/cadbench -exp hibernate -streams 100
	$(GO) test -race -run 'TestHibernat|TestGovernor|TestCrashDuringHibernationChurn' -count=1 ./internal/service ./cmd/cadd

# Cluster smoke: real cadd subprocesses — three ring nodes plus the
# router replaying an Enron prefix byte-identically to a single node,
# and a WAL-shipped standby promoted after a kill -9 — plus the
# in-process cluster suite (ring pins, scatter merges, replication
# byte-identity). CI runs this.
cluster-smoke:
	$(GO) test -race -run 'TestCluster' -count=1 ./cmd/cadd
	$(GO) test -race -count=1 ./internal/cluster

# Observability smoke: real cadd subprocesses — three ring nodes with a
# push-latency SLO plus the router, built with a stamped version —
# routed pushes must produce one stitched cross-node trace (validated
# by internal/tracecheck with a pid per node), a parseable /statusz on
# every node and the router, and a merged /metrics exposition that
# lints with exemplars, SLO burn-rate gauges and runtime series. The
# cadtop render tests ride along so the operations view stays honest
# against the same document shapes. CI runs this.
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke' -count=1 ./cmd/cadd
	$(GO) test -race -count=1 ./cmd/cadtop

# The durability acceptance test: build the real cadd binary, kill -9
# it mid-push, restart on the same -data-dir and require the recovered
# /report to be byte-identical to an uninterrupted run. Runs under
# -race so the recovery path is also raced. CI runs this.
crash-smoke:
	$(GO) test -race -run 'TestCrashRecovery|TestDurability' -count=1 ./cmd/cadd ./internal/service

# Dynamic-vertex-set smoke: the datagen grow dataset (a growing
# sequence, exercising the text format's `v t count` directives)
# replayed through real routed cadd subprocesses byte-identically to
# the batch cadrun encoding, a kill -9 mid-growth of an external-ID
# stream, and the growth test suite (common-vertex-set scoring,
# cursor rollback on failed pushes, recovery and hibernation across a
# vertex-set change). CI runs this.
grow-smoke:
	$(GO) run ./cmd/datagen -dataset grow -out /tmp/cad-grow-smoke.txt
	$(GO) run ./cmd/cadrun -in /tmp/cad-grow-smoke.txt > /dev/null
	$(GO) test -race -run 'TestGrow|TestFailedPushRetry|TestExternalID|TestDurabilityRecoveryGrowth|TestHibernateRehydrateGrowth' -count=1 ./cmd/cadd ./internal/service
