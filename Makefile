# Tier-1 verification targets. `make check` is the full gate: static
# vetting plus the race-enabled test suite (the resilience layer is
# concurrency-sensitive — cancellation races against evaluation).

GO ?= go

.PHONY: build test check fmt vet staticcheck govulncheck race relation-race bench microbench fuzz-smoke soak replica-soak cluster-soak cluster-seeds scrub-soak loc golden shapes

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs when the binary is on PATH and is skipped (with a
# note) otherwise, so `make check` works in offline sandboxes; CI
# installs a pinned version, making the check mandatory there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# govulncheck scans the dependency graph against the Go vulnerability
# database. Same deal as staticcheck: best-effort locally (it needs
# network access to fetch the DB), mandatory in CI where a pinned
# version is installed.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# -shuffle=on randomizes test (and soak) execution order each run, so
# inter-test state leaks — a listener not closed, a fault site left
# set — surface instead of hiding behind a fixed order.
race:
	$(GO) test -race -shuffle=on ./...

# The relation prefix oracle (every generation of a random history
# reads exactly its prefix while a writer extends the shared log) and
# the concurrent writer/query/reader test, twenty times each under the
# race detector: the log's readers take no lock, so a missing atomic or
# ordering shows up only as an occasional race report.
relation-race:
	$(GO) test -race -count=20 -run '^(TestLayersMatchSingleLayer|TestLayeredClonesConcurrent)$$' ./internal/relation

# `race` (and therefore `check`) already executes every chaos soak —
# live, durable, and replicated — at their ~2s in-tree defaults; the
# soak targets below rerun them longer. Duration is in nanoseconds and
# env-tunable, e.g. `make soak SOAK_DURATION=30000000000`.
SOAK_DURATION ?= 15000000000

soak:
	CHAINSPLIT_SOAK_DURATION=$(SOAK_DURATION) $(GO) test -race -count=1 -run 'ChaosSoak' -v .

# Just the replication soak (leader + followers under partitions, lag,
# and corruption) — the fastest way to hammer internal/replica.
replica-soak:
	CHAINSPLIT_SOAK_DURATION=$(SOAK_DURATION) $(GO) test -race -count=1 -run 'ReplicaChaosSoak' -v .

# Just the cluster soak (automated failover, epoch fencing, routed
# reads/writes under leader crashes and coordinator partitions).
cluster-soak:
	CHAINSPLIT_SOAK_DURATION=$(SOAK_DURATION) $(GO) test -race -count=1 -run 'ClusterChaosSoak' -v .

# The cluster soak replayed under every seed that has failed it before
# (lost acknowledged generations, a deposed leader accepting a write).
CLUSTER_SOAK_SEEDS ?= 1790318980105104337 1790467812519676064 1790467825646275315 1790437619866070027 1790437626643470570

cluster-seeds:
	for s in $(CLUSTER_SOAK_SEEDS); do \
		CHAINSPLIT_SOAK_SEED=$$s $(GO) test -race -count=1 -run 'ClusterChaosSoak' . || exit 1; \
	done

# Just the corruption soak (background scrubbing + anti-entropy
# digests detecting injected bit-flips, quarantine-and-reseed repair
# under live traffic). Also runs as part of `make soak` — the -run
# pattern there matches every *ChaosSoak.
scrub-soak:
	CHAINSPLIT_SOAK_DURATION=$(SOAK_DURATION) $(GO) test -race -count=1 -run 'CorruptionChaosSoak' -v .

check: build fmt vet staticcheck govulncheck race

bench:
	$(GO) test -bench=. -benchmem

# The micro-benchmarks docs/performance.md tabulates: the term and
# relation layers, the builtin registry lookup, top-down and buffered
# solves of the list programs, a warm bound sg query and a streamed
# snapshot file at 10k and 160k facts. BENCHTIME=1x runs each
# benchmark once (CI does, so none of them rots).
BENCHTIME ?= 1s

microbench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./internal/term ./internal/relation ./internal/builtin ./internal/topdown ./internal/counting ./internal/core ./internal/wal

# Regenerate every golden file from the current code: the executor
# outcome table, the experiments' generated EXPERIMENTS.md sections,
# the fact-state golden and the magic rewrite's body orders. Review the
# diff before committing it — a golden that moves is a behaviour change.
golden:
	$(GO) test -count=1 -run '^TestExecutorGolden$$' ./internal/seminaive -update
	$(GO) test -count=1 -run '^TestAllExperimentsRunQuick$$' ./internal/experiments -update
	$(GO) test -count=1 -run '^TestFactStateGolden$$' . -update
	$(GO) test -count=1 -run '^TestRewriteOrderGolden$$' ./internal/magic -update

# The three line counts ROADMAP.md tracks: non-test Go outside bench/,
# tests outside bench/, and everything in bench/.
GO_FILES = find . -path ./.bench_build -prune -o -path ./bench -prune -o -name '*.go'

loc:
	@printf 'non-test Go LOC outside bench/: %s\n' "$$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'test Go LOC outside bench/:     %s\n' "$$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'bench/ Go LOC:                  %s\n' "$$(find bench -name '*.go' | xargs cat | wc -l)"

# The shape gates, verbose, so the log records each size series: bytes
# per element of append (buffered and top-down), bytes per n·log₂n of
# top-down qsort, the time of each ground-term operation at 16 and
# 65,536 list cells, the heap bytes per stored tuple and the
# allocations of a copy-on-write relation clone, the bytes per top-down
# resolution step of qsort, isort and append, semi-naive's
# allocations per derived tuple, the allocations of a warm bound sg
# query, a write's bytes against database size and a Checkpoint's
# bytes per stored fact.
shapes:
	$(GO) test -count=1 -v -run '^(TestAppendLinear|TestTopDownQsortNLogN|TestWarmBoundQueryAllocs|TestWriteCostSublinear|TestSnapshotBytesPerFact)$$' ./internal/core
	$(GO) test -count=1 -v -run '^TestTopDownBytesPerStep$$' ./internal/topdown
	$(GO) test -count=1 -v -run '^TestEvalAllocsPerDerivedTuple$$' ./internal/seminaive
	$(GO) test -count=1 -v -run '^TestGroundOpsConstantTime$$' ./internal/term
	$(GO) test -count=1 -v -run '^TestRelationStorageCost$$' ./internal/relation

# Short continuous-fuzz pass over the parser entry points, the WAL
# frame walker, the snapshot decoder, the epoch-file parser and the
# conjunction oracle (every
# strategy agrees on queries of several goals; their seed corpora run in every ordinary `go test`;
# this actually mutates for 30s each). New crashers land in
# testdata/fuzz — commit them as regression seeds.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/lang/
	$(GO) test -run='^$$' -fuzz='^FuzzParseTerm$$' -fuzztime=30s ./internal/lang/
	$(GO) test -run='^$$' -fuzz='^FuzzScanSegment$$' -fuzztime=30s ./internal/wal/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=30s ./internal/wal/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEpochState$$' -fuzztime=30s ./internal/wal/
	$(GO) test -run='^$$' -fuzz='^FuzzConjunctionsAgree$$' -fuzztime=30s ./internal/core/
