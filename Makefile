GO ?= go

.PHONY: check vet build test race poolcheck bench bench-proxy bench-gate lint cover fuzz corpus nightly-chaos

# The full gate: everything a change must pass before it lands.
check: vet build race bench-proxy

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pooled-buffer ownership check: the packages that move netsim pool
# buffers, built with the poolcheck tag. Freed buffers are poisoned,
# FreeBuf panics on a double free or a foreign class-capacity buffer, and
# each test binary fails at teardown if any buffer is still outstanding,
# printing the stack that allocated it.
POOLCHECK_PKGS = netsim oncrpc client proxy wire udpgate replica rebalance chaos
poolcheck:
	$(GO) test -tags poolcheck -count 1 $(addprefix ./internal/,$(POOLCHECK_PKGS))

# Short run of every benchmark, as a smoke test.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The contended data-path benchmarks (compare against BENCH_proxy.json).
bench-proxy:
	$(GO) test -run xxx -bench 'ProxyForward|CacheHit' -benchmem -benchtime 1s -cpu 1,4 .

# Benchmark regression gate: repeated short runs of the gated data-path
# benchmarks, reduced to their minimum and compared against the
# checked-in baselines. Allocation counts are held exactly (the forward
# path must stay 0 allocs/op; the bulk path's budgets carry headroom in
# BENCH_bulkio.json); ns/op gets BENCH_TOLERANCE headroom for machine
# noise. bench.out/bench_bulk.out are kept for CI artifact upload. The
# bulk benchmarks run at -cpu 4 only (the windowed fan-out needs
# GOMAXPROCS>1 to overlap) and a few long iterations, not thousands of
# short ones.
BENCH_COUNT ?= 6
BENCH_TIME ?= 20000x
BENCH_BULK_TIME ?= 3x
BENCH_FLEET_TIME ?= 5000x
BENCH_REPLICA_TIME ?= 2000x
BENCH_WIRE_TIME ?= 3x
BENCH_REBALANCE_TIME ?= 2x
BENCH_TOLERANCE ?= 2.5
bench-gate:
	$(GO) test -run xxx -bench 'ProxyForward|CacheHit' -benchmem \
	    -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -cpu 1,4 . > bench.out \
	    || { cat bench.out; exit 1; }
	$(GO) test -run xxx -bench 'FleetForward' -benchmem \
	    -benchtime $(BENCH_FLEET_TIME) -count $(BENCH_COUNT) -cpu 4 . >> bench.out \
	    || { cat bench.out; exit 1; }
	$(GO) run ./cmd/benchgate -baseline BENCH_proxy.json -input bench.out -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run xxx -bench 'BenchmarkBulk(Read|Write)' -benchmem \
	    -benchtime $(BENCH_BULK_TIME) -count $(BENCH_COUNT) -cpu 4 . > bench_bulk.out \
	    || { cat bench_bulk.out; exit 1; }
	$(GO) run ./cmd/benchgate -baseline BENCH_bulkio.json -input bench_bulk.out -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run xxx -bench 'BenchmarkReplicaRead' -benchmem \
	    -benchtime $(BENCH_REPLICA_TIME) -count $(BENCH_COUNT) -cpu 4 . > bench_replica.out \
	    || { cat bench_replica.out; exit 1; }
	$(GO) run ./cmd/benchgate -baseline BENCH_replica.json -input bench_replica.out -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run xxx -bench 'BenchmarkWire(Read|Write)' -benchmem \
	    -benchtime $(BENCH_WIRE_TIME) -count $(BENCH_COUNT) -cpu 4 . > bench_wire.out \
	    || { cat bench_wire.out; exit 1; }
	$(GO) run ./cmd/benchgate -baseline BENCH_wire.json -input bench_wire.out -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run xxx -bench 'BenchmarkRebalanceThroughput' -benchmem \
	    -benchtime $(BENCH_REBALANCE_TIME) -count $(BENCH_COUNT) -cpu 4 . > bench_rebalance.out \
	    || { cat bench_rebalance.out; exit 1; }
	$(GO) run ./cmd/benchgate -baseline BENCH_rebalance.json -input bench_rebalance.out -tolerance $(BENCH_TOLERANCE)

# Static analysis beyond vet. The tools are not vendored: offline
# checkouts skip a missing tool with a note, but under CI=1 a missing
# tool is an error — the lint job must never silently pass because an
# install step broke.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
	    staticcheck ./... ; \
	elif [ -n "$(CI)" ]; then \
	    echo "lint: staticcheck not installed (required under CI=1)"; exit 1; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
	    govulncheck ./... ; \
	elif [ -n "$(CI)" ]; then \
	    echo "lint: govulncheck not installed (required under CI=1)"; exit 1; \
	else echo "lint: govulncheck not installed; skipping"; fi

# Coverage with a floor: the suite must keep covering at least
# COVER_FLOOR% of statements overall, and two correctness-critical
# packages must also meet per-package floors on their own —
# cross-package chaos tests don't count toward them: internal/replica
# (replica map + resync protocol) and internal/rebalance (online block
# migration; its floor is higher because a missed branch there is lost
# data, not a missed optimization).
COVER_FLOOR ?= 65
REBAL_COVER_FLOOR ?= 80
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/,"",$$3); print $$3 }'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
	    if (t+0 < f+0) { printf "cover: %.1f%% is below the %s%% floor\n", t, f; exit 1 } \
	    else { printf "cover: %.1f%% >= %s%% floor\n", t, f } }'
	@pkg=$$($(GO) test -cover ./internal/replica/ | awk '{ for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { sub(/%/,"",$$i); print $$i } }'); \
	awk -v t="$$pkg" -v f="$(COVER_FLOOR)" 'BEGIN { \
	    if (t+0 < f+0) { printf "cover: internal/replica %.1f%% is below the %s%% floor\n", t, f; exit 1 } \
	    else { printf "cover: internal/replica %.1f%% >= %s%% floor\n", t, f } }'
	@pkg=$$($(GO) test -cover ./internal/rebalance/ | awk '{ for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { sub(/%/,"",$$i); print $$i } }'); \
	awk -v t="$$pkg" -v f="$(REBAL_COVER_FLOOR)" 'BEGIN { \
	    if (t+0 < f+0) { printf "cover: internal/rebalance %.1f%% is below the %s%% floor\n", t, f; exit 1 } \
	    else { printf "cover: internal/rebalance %.1f%% >= %s%% floor\n", t, f } }'

# The nightly chaos matrix, locally: the whole chaos suite plus the
# chaos_long elastic-topology scenarios, across {udp,tcp} transports and
# {1,3}-way replication under the race detector and the poolcheck
# ownership check. CI runs the same matrix
# with -count 3 (.github/workflows/nightly.yml).
nightly-chaos:
	@for t in udp tcp; do for k in 1 3; do \
	    echo "== chaos matrix: transport=$$t replication=$$k =="; \
	    CHAOS_TRANSPORT=$$t CHAOS_REPLICATION=$$k \
	    $(GO) test -tags chaos_long,poolcheck -race -count 1 ./internal/chaos/ || exit 1; \
	done; done

# Regenerate the checked-in fuzz seed corpora (testdata/fuzz/...).
corpus:
	$(GO) run ./tools/gencorpus

# Fixed-budget run of every fuzz target (wire parsers, the WAL scanner,
# and the routing-table transition machine).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/route/ -run '^$$' -fuzz FuzzTableTransition -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oncrpc/ -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nfsproto/ -run '^$$' -fuzz FuzzParseCall -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nfsproto/ -run '^$$' -fuzz FuzzParseMountPortmap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz FuzzParseDatagram -fuzztime $(FUZZTIME)
