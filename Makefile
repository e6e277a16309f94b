# Tier-1 verification targets. `make check` is the full gate: static
# vetting plus the race-enabled test suite (the resilience layer is
# concurrency-sensitive — cancellation races against evaluation).

GO ?= go

.PHONY: build test check vet staticcheck govulncheck race bench fuzz-smoke soak replica-soak cluster-soak cluster-seeds scrub-soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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

check: build vet staticcheck govulncheck race

bench:
	$(GO) test -bench=. -benchmem

# Short continuous-fuzz pass over the parser entry points (the seed
# corpora under internal/lang/testdata/fuzz run in every ordinary
# `go test`; this actually mutates for 30s each). New crashers land in
# testdata/fuzz — commit them as regression seeds.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/lang/
	$(GO) test -run='^$$' -fuzz='^FuzzParseTerm$$' -fuzztime=30s ./internal/lang/
