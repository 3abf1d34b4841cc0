# Development targets. `make ci` is what a gate should run: formatting,
# vet, the tier-1 suite (shuffled, so inter-test order dependencies
# can't hide), the race-detector pass (which includes the concurrency
# stress tests in internal/proxy and internal/checker), a short fuzz
# smoke of the SQL parser, and staticcheck when installed.

GO ?= go

# Version stamp for -version (internal/buildinfo); a plain `go build`
# without these falls back to Go's embedded VCS metadata.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X repro/internal/buildinfo.Version=$(VERSION) -X repro/internal/buildinfo.Commit=$(COMMIT) -X repro/internal/buildinfo.Date=$(DATE)"

.PHONY: build test vet race bench bench-json hotpath pipeline coldpath coldsmoke allocbudget openloop opensmoke ingress pgsmoke driversmoke shadowsmoke saturate satsmoke clusterbench clustersmoke clusterkill fmtcheck fuzz fuzzwal fuzzwire fuzzpg killrecover staticcheck ci

build:
	$(GO) build $(LDFLAGS) ./...

# Tier-1 suite (ROADMAP.md). -shuffle=on randomizes test execution
# order within each package.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Hot-path and evaluation benchmarks.
bench:
	$(GO) test -bench 'CheckLongTrace|ParallelPrincipals|FactsLongTrace|ProxyRoundTrip|CheckMetrics' -benchmem ./...

# Machine-readable benchmark document; successive BENCH_*.json files
# checked in at the repo root form the performance trajectory.
# -against diffs the fresh document's pinned hotpath numbers against
# the previous one and fails on a >10% speedup regression.
bench-json:
	$(GO) run ./cmd/acbench -json BENCH_11.json -against BENCH_10.json

hotpath:
	$(GO) run ./cmd/acbench -hotpath

# Pipelining throughput table (protocol v2, window sweep).
pipeline:
	$(GO) run ./cmd/acbench -pipeline

# Cold-path policy-size sweep (serial scan vs compiled index vs
# index + worker pool).
coldpath:
	$(GO) run ./cmd/acbench -coldpath

# Fixed-iteration smoke of the cold-path benchmarks: catches a
# broken/pessimized cold path in CI without the noise sensitivity of
# time-based benching.
coldsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkColdPath' -benchtime=100x ./internal/checker

# Warm-path allocation contract: a fixed-iteration -benchmem smoke of
# the warm-tier benchmarks (front tier must report 0 allocs/op), then
# the budget tests that turn those numbers into hard gates — the
# checker's decide tiers, and the proxy's pooled encode path
# end-to-end (front-tier warm probe through wire encode must be
# exactly 0 allocs/op on the v2 surface).
allocbudget:
	$(GO) test -run '^$$' -bench 'BenchmarkWarmDecide' -benchmem -benchtime=100x ./internal/checker
	$(GO) test -run 'TestWarmDecideAllocBudget' -count=1 ./internal/checker
	$(GO) test -run '^$$' -bench 'BenchmarkWarmEncode' -benchmem -benchtime=100x ./internal/proxy
	$(GO) test -run 'TestWarmEncodeAllocBudget' -count=1 ./internal/proxy

# Full open-loop sweep (10k/100k/1M sessions); see README Load Testing.
openloop:
	$(GO) run ./cmd/acbench -openloop

# Seconds-long open-loop smoke for CI: a real proxy under Poisson
# arrivals, gating that the harness runs end to end and the proxy
# absorbs the offered rate without errors.
opensmoke:
	$(GO) run ./cmd/acbench -openloop -openloop-sessions 200 -openloop-ops 2500 -openloop-qps 500

# Ingress-surface comparison: serial decide throughput for the same
# statement through the v2 client, the database/sql driver, and the
# Postgres wire listener, all on one enforcement core.
ingress:
	$(GO) run ./cmd/acbench -ingress

# Full saturation-knee search: stepped open-loop ramp per ingress,
# binary-searching the highest offered QPS whose p99 stays under the
# SLO (default 5ms); see README "Finding the ceiling".
saturate:
	$(GO) run ./cmd/acbench -saturate

# Seconds-long bounded saturate smoke for CI: a real knee search on
# the v2 ingress with a tight wall-clock budget, gating that the ramp
# and the step classifier run end to end.
satsmoke:
	$(GO) run ./cmd/acbench -saturate -sat-ingress v2 -sat-budget 5s -sat-step 1s

# Postgres wire-protocol conformance: raw-socket client exercising the
# simple and extended flows, mid-transaction blocks, cancellation, the
# prepared-statement front-cache pin, and the connection limit.
pgsmoke:
	$(GO) test -count=1 ./internal/pgwire

# database/sql driver suite plus the cross-ingress decision-parity
# test (every fixture's corpus through v2, driver, and pgwire).
driversmoke:
	$(GO) test -count=1 ./driver
	$(GO) test -count=1 -run 'TestIngressDecisionParity|TestServeBothListeners' .

# Policy-trial lifecycle smoke: stage a divergent candidate over the
# fixture corpus, assert the proxy reports exactly the expected diff
# set, promote, and assert convergence with direct enforcement.
shadowsmoke:
	$(GO) test -count=1 -run 'TestShadowSmoke' .

# Full cluster knee sweep: aggregate sustained QPS at the p99 SLO over
# 1/2/4/8 in-process cluster nodes with ring-mixed (local + forwarded)
# durable sessions; see DESIGN.md §16.
clusterbench:
	$(GO) run ./cmd/acbench -cluster

# Cluster-mode CI smoke: a 3-node in-process cluster serves a
# mixed-session corpus through one entry node (some sessions local,
# some forwarded), every decision byte-matched against a single-node
# control, then one owner is closed and a history-dependent session it
# owned must re-decide identically from its follower's shipped WAL.
clustersmoke:
	$(GO) test -count=1 -run 'TestClusterSmoke' .

# Cluster kill-and-takeover integration test: SIGKILL a session's owner
# mid-corpus (a real child process), and the follower must serve the
# whole history-dependent corpus byte-identically to an unkilled
# control.
clusterkill:
	$(GO) test -count=1 -run 'TestClusterKillHandover' -v .

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Ten-second fuzz smoke of the SQL parser; the corpus lives in
# internal/sqlparser/testdata.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparser

# Ten-second fuzz smoke of the WAL record decoder (torn writes, bit
# flips, truncation must never panic recovery).
fuzzwal:
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/durable

# Ten-second fuzz smoke of the proxy wire codec: the hand-rolled fast
# decoder must agree with the normalized reflective fallback on every
# line it accepts.
fuzzwire:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/proxy

# Ten-second fuzz smoke of the Postgres wire ingress: arbitrary
# post-startup message streams must never panic or hang the serve
# loop, and whatever it answers must be well-framed.
fuzzpg:
	$(GO) test -fuzz=FuzzPgwireStream -fuzztime=10s ./internal/pgwire

# Kill-and-recover integration test: run a WAL-backed proxy, SIGKILL
# it mid-workload, restart, and assert decision parity with an
# uncrashed control run.
killrecover:
	$(GO) test -run 'TestKillRecover' -v ./internal/durable

# staticcheck is optional tooling: run it when installed, succeed
# quietly when not, so CI works on minimal containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

ci: fmtcheck vet test race coldsmoke allocbudget opensmoke satsmoke pgsmoke driversmoke shadowsmoke clustersmoke clusterkill fuzz fuzzwal fuzzwire fuzzpg killrecover staticcheck
