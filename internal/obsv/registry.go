package obsv

// The process-wide metrics registry: named monotonic counters bumped
// by the serving layer and the engines, plus gauges sampled at
// snapshot time. Everything is atomic — registering and bumping are
// safe from any goroutine — and reading is a point-in-time text
// snapshot in a one-metric-per-line format (name, value, help), the
// shape scrape-based collectors ingest.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"chainsplit/internal/term"
)

// Counter is a monotonic process-wide counter. Use the package-level
// counters below; NewCounter registers additional ones.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Add increments the counter by n. A nil counter no-ops, mirroring the
// nil-Tracer convention.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// gauge is a sampled-at-snapshot metric.
type gauge struct {
	name string
	help string
	f    func() int64
}

var (
	regMu    sync.Mutex
	counters []*Counter
	gauges   []gauge
)

// NewCounter registers a counter under name (snake_case, by
// convention ending in _total) and returns it. Registering the same
// name twice returns the existing counter, so package-level metric
// variables stay singletons across re-initialization in tests.
func NewCounter(name, help string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name, help: help}
	counters = append(counters, c)
	return c
}

// RegisterGauge registers a gauge sampled by f at snapshot time.
// Re-registering a name replaces the sampler.
func RegisterGauge(name, help string, f func() int64) {
	regMu.Lock()
	defer regMu.Unlock()
	for i := range gauges {
		if gauges[i].name == name {
			gauges[i] = gauge{name: name, help: help, f: f}
			return
		}
	}
	gauges = append(gauges, gauge{name: name, help: help, f: f})
}

// The registry's built-in metrics, bumped by the serving layer and the
// engines. They are process-wide: a binary embedding several DBs sees
// the sum of all of them, which is what a per-process scrape wants.
var (
	// Queries counts evaluations started (admission attempts included).
	Queries = NewCounter("chainsplit_queries_total", "queries submitted to QueryCtx")
	// QueryErrors counts queries that returned an error to the caller.
	QueryErrors = NewCounter("chainsplit_query_errors_total", "queries that failed after retries")
	// Retries counts re-attempts after transient failures.
	Retries = NewCounter("chainsplit_retries_total", "query re-attempts after transient failures")
	// Admitted counts admission-control grants.
	Admitted = NewCounter("chainsplit_admission_admitted_total", "admission grants (immediate or after queueing)")
	// Shed counts queries rejected by admission control.
	Shed = NewCounter("chainsplit_admission_shed_total", "queries shed with ErrOverloaded")
	// Generations counts published database generations (Exec/LoadFacts).
	Generations = NewCounter("chainsplit_generations_total", "database generations published")
	// Fallbacks counts StrategyAuto degradations to semi-naive.
	Fallbacks = NewCounter("chainsplit_fallbacks_total", "StrategyAuto fallbacks to semi-naive")

	// WALAppends counts records appended to write-ahead logs.
	WALAppends = NewCounter("chainsplit_wal_appends_total", "records appended to write-ahead logs")
	// WALBytes accumulates framed bytes written to write-ahead logs.
	WALBytes = NewCounter("chainsplit_wal_bytes_total", "bytes written to write-ahead logs (framing included)")
	// WALSnapshots counts snapshot files written (compactions).
	WALSnapshots = NewCounter("chainsplit_wal_snapshots_total", "durable snapshots written")
	// Recoveries counts successful durable-store opens that replayed
	// state (a snapshot, WAL records, or both).
	Recoveries = NewCounter("chainsplit_recoveries_total", "durable stores recovered on open")
	// ReplayedRecords counts WAL records applied during recovery.
	ReplayedRecords = NewCounter("chainsplit_wal_replayed_records_total", "WAL records replayed during recovery")

	// ReplicaRecordsShipped counts WAL records a leader shipped to
	// followers (re-framed per connection).
	ReplicaRecordsShipped = NewCounter("chainsplit_replica_records_shipped_total", "WAL records shipped to replica followers")
	// ReplicaSnapshotsShipped counts full snapshots shipped to
	// bootstrap (or re-seed) followers whose position left retained
	// history.
	ReplicaSnapshotsShipped = NewCounter("chainsplit_replica_snapshots_shipped_total", "snapshots shipped to bootstrap replica followers")
	// ReplicaBytesShipped accumulates framed bytes written to follower
	// connections (records, snapshots and heartbeats).
	ReplicaBytesShipped = NewCounter("chainsplit_replica_bytes_shipped_total", "bytes shipped over replication connections (framing included)")
	// ReplicaRecordsApplied counts shipped records a follower durably
	// appended and applied.
	ReplicaRecordsApplied = NewCounter("chainsplit_replica_records_applied_total", "shipped WAL records applied by followers")
	// ReplicaReconnects counts follower reconnection attempts after a
	// lost or corrupt replication stream.
	ReplicaReconnects = NewCounter("chainsplit_replica_reconnects_total", "follower reconnects after a dropped replication stream")
	// ReplicaStaleSheds counts reads refused with ErrStale by followers
	// past their staleness bound.
	ReplicaStaleSheds = NewCounter("chainsplit_replica_stale_sheds_total", "follower reads shed with ErrStale")
	// ReplicaPromotions counts followers promoted to writable leaders.
	ReplicaPromotions = NewCounter("chainsplit_replica_promotions_total", "followers promoted to leader")

	// ClusterFailovers counts automated failovers committed by cluster
	// coordinators (leader suspected, successor promoted).
	ClusterFailovers = NewCounter("chainsplit_cluster_failovers_total", "automated leader failovers committed by coordinators")
	// FencedWrites counts mutations refused with ErrFenced by deposed
	// leaders.
	FencedWrites = NewCounter("chainsplit_fenced_writes_total", "mutations refused by fenced (deposed) leaders")
	// BreakerTransitions counts per-node circuit-breaker state changes
	// (closed→open, open→half-open, half-open→closed/open) in cluster
	// read routers.
	BreakerTransitions = NewCounter("chainsplit_cluster_breaker_transitions_total", "circuit-breaker state transitions in cluster routers")

	// ScrubPasses counts completed online scrub passes over live
	// durable stores.
	ScrubPasses = NewCounter("chainsplit_scrub_passes_total", "online integrity scrub passes completed")
	// ScrubCorruptions counts scrub passes that found at least one
	// integrity problem.
	ScrubCorruptions = NewCounter("chainsplit_scrub_corruptions_total", "scrub passes that detected corruption")
	// DigestsVerified counts anti-entropy state digests a follower
	// checked against its own state and found matching.
	DigestsVerified = NewCounter("chainsplit_replica_digests_verified_total", "anti-entropy state digests verified by followers")
	// DigestDivergences counts anti-entropy digest mismatches — a
	// follower's state diverged from the leader's at the same
	// generation.
	DigestDivergences = NewCounter("chainsplit_replica_digest_divergences_total", "anti-entropy digest mismatches detected by followers")
	// Quarantines counts nodes that quarantined themselves after a
	// failed scrub pass or digest check.
	Quarantines = NewCounter("chainsplit_cluster_quarantines_total", "nodes quarantined after detected corruption or divergence")
	// Reseeds counts quarantined nodes that completed the wipe-and-
	// reseed repair and rejoined the cluster.
	Reseeds = NewCounter("chainsplit_cluster_reseeds_total", "quarantined nodes repaired by re-seeding from the leader")
	// ReconnectEvents counts backoff-gated reconnect NOTICES (not
	// attempts — ReplicaReconnects counts every attempt); repeated
	// failures inside one backoff window collapse into a single event.
	ReconnectEvents = NewCounter("chainsplit_replica_reconnect_events_total", "backoff-gated reconnect failure events (collapsed from per-attempt noise)")
)

func init() {
	RegisterGauge("chainsplit_interned_terms", "distinct ground terms in the process-wide dictionaries",
		func() int64 {
			s := term.DictStats()
			return int64(s.Syms + s.Strs + s.Comps + s.BigInts)
		})
	RegisterGauge("chainsplit_interned_compounds", "distinct ground compound terms interned",
		func() int64 { return int64(term.DictStats().Comps) })
}

// Snapshot renders every registered metric as text: a `# HELP` comment
// followed by `name value`, counters first, then gauges, each group
// sorted by name. The output is a point-in-time read; counters may
// advance while it renders.
func Snapshot() string {
	regMu.Lock()
	cs := append([]*Counter(nil), counters...)
	gs := append([]gauge(nil), gauges...)
	regMu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	var b strings.Builder
	for _, c := range cs {
		if c.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", c.name, c.help)
		}
		fmt.Fprintf(&b, "%s %d\n", c.name, c.Value())
	}
	for _, g := range gs {
		if g.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", g.name, g.help)
		}
		fmt.Fprintf(&b, "%s %d\n", g.name, g.f())
	}
	return b.String()
}
