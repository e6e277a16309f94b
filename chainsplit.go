// Package chainsplit is an embeddable deductive database implementing
// chain-split evaluation of recursive queries, a reproduction of
//
//	Jiawei Han, "Chain-Split Evaluation in Deductive Databases",
//	Proc. 8th Int. Conf. on Data Engineering (ICDE), 1992.
//
// Programs are Horn-clause rules in a Datalog dialect with lists,
// integers and evaluable predicates. Recursions are compiled into
// chain forms; queries are evaluated by the method the paper
// prescribes for their class:
//
//   - function-free recursions: magic sets with the chain-split
//     binding propagation rule (Algorithm 3.1), evaluated semi-naively,
//   - compiled functional chains (append, travel): buffered
//     chain-split evaluation (Algorithm 3.2), with termination
//     constraints pushed into the iteration (Algorithm 3.3),
//   - nested and nonlinear functional recursions (isort, qsort):
//     tabled top-down evaluation with chain-split subgoal scheduling
//     (Section 4).
//
// Basic use:
//
//	db := chainsplit.Open()
//	err := db.Exec(`
//	    append([], L, L).
//	    append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
//	`)
//	res, err := db.Query("?- append([1,2], [3], W).")
//	for _, row := range res.Rows { fmt.Println(row["W"]) }
//
// Queries are interruptible and crash-contained: QueryCtx accepts a
// context for cancellation, WithTimeout sets a per-query deadline, and
// failures come back as typed errors (ErrDeadline, ErrBudget, …)
// wrapped in a structured *EvalError — never as a panic:
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer cancel()
//	res, err := db.QueryCtx(ctx, "?- travel(L, yvr, DT, A, AT, F).",
//	    chainsplit.WithTimeout(100*time.Millisecond))
//	if errors.Is(err, chainsplit.ErrDeadline) {
//	    // the cyclic flight graph diverged; the query was stopped
//	}
//
// A DB serves concurrent callers: queries evaluate in parallel against
// immutable snapshots while Exec/LoadFacts publish new generations
// atomically, admission control sheds excess load with ErrOverloaded
// (see OpenWith), and WithRetry re-runs transiently failed queries
// with capped exponential backoff.
package chainsplit

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"chainsplit/internal/admission"
	"chainsplit/internal/builtin"
	"chainsplit/internal/core"
	"chainsplit/internal/cost"
	"chainsplit/internal/everr"
	"chainsplit/internal/lang"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/replica"
	"chainsplit/internal/retry"
	"chainsplit/internal/scrub"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// Term is a value of the term algebra: symbolic constants, integers,
// strings, lists and compound terms. Its String method renders the
// surface syntax.
type Term = term.Term

// Strategy selects an evaluation method; see the Strategy* constants.
type Strategy = core.Strategy

// The available evaluation strategies.
const (
	// StrategyAuto lets the planner choose per the paper's
	// architecture (default).
	StrategyAuto = core.StrategyAuto
	// StrategyMagic forces chain-split magic sets (Algorithm 3.1).
	StrategyMagic = core.StrategyMagic
	// StrategyMagicFollow forces classic magic sets (the baseline).
	StrategyMagicFollow = core.StrategyMagicFollow
	// StrategyMagicSplit forces always-split magic sets (ablation).
	StrategyMagicSplit = core.StrategyMagicSplit
	// StrategyBuffered forces buffered chain-split evaluation
	// (Algorithm 3.2).
	StrategyBuffered = core.StrategyBuffered
	// StrategyTopDown forces tabled top-down chain-split scheduling.
	StrategyTopDown = core.StrategyTopDown
	// StrategySeminaive forces plain bottom-up evaluation.
	StrategySeminaive = core.StrategySeminaive
)

// Metrics reports evaluation effort; which fields are populated
// depends on the strategy that ran.
type Metrics = core.Metrics

// queryConfig gathers everything one Query/Explain call can customize:
// the engine options plus the serving-layer retry policy.
type queryConfig struct {
	opts  core.Options
	retry retry.Policy
}

// Option customizes one Query or Explain call.
type Option func(*queryConfig)

// WithStrategy overrides the planner's strategy choice.
func WithStrategy(s Strategy) Option {
	return func(q *queryConfig) { q.opts.Strategy = s }
}

// WithThresholds sets the chain-split and chain-following thresholds
// of Algorithm 3.1.
func WithThresholds(splitAbove, followBelow float64) Option {
	return func(q *queryConfig) {
		q.opts.Thresholds = cost.Thresholds{SplitAbove: splitAbove, FollowBelow: followBelow}
	}
}

// WithBudgets bounds evaluation effort: maxTuples bounds derived
// tuples (bottom-up), maxSteps bounds resolution steps (top-down),
// maxAnswers bounds buffered-evaluation answers. Zero keeps a
// default.
func WithBudgets(maxTuples, maxSteps, maxAnswers int) Option {
	return func(q *queryConfig) {
		q.opts.MaxTuples = maxTuples
		q.opts.MaxSteps = maxSteps
		q.opts.MaxAnswers = maxAnswers
	}
}

// WithTimeout bounds the query's wall-clock time: evaluation stops
// with an error matching ErrDeadline once d has passed. It composes
// with QueryCtx — whichever of the context and the timeout expires
// first wins.
func WithTimeout(d time.Duration) Option {
	return func(q *queryConfig) { q.opts.Timeout = d }
}

// WithTrace records per-iteration (bottom-up) or per-level (buffered)
// profiles in the result metrics, the observed per-rule, per-literal
// join profile in Metrics.Rules (bottom-up), and enables the
// structured trace: typed phase events (plan/compile/round/merge/level)
// in Metrics.TraceEvents; the buffered evaluator's worked trace is in
// Metrics.Events. Queries without WithTrace pay nothing for tracing.
func WithTrace() Option {
	return func(q *queryConfig) { q.opts.Trace = true }
}

// WithLimit truncates the answer set to the first n answers; n = 1
// turns the query into an existence check.
func WithLimit(n int) Option {
	return func(q *queryConfig) { q.opts.Limit = n }
}

// RetryPolicy configures WithRetry: how many attempts a query gets and
// the capped exponential backoff (with jitter) between them. The zero
// value disables retries.
type RetryPolicy = retry.Policy

// WithRetry retries the query on transient failures — ErrOverloaded
// (shed by admission control) and ErrPanic (contained internal fault)
// — with the policy's backoff schedule. Deterministic failures
// (ErrCanceled, ErrDeadline, ErrBudget, ErrUnsafe, ErrPlan) are never
// retried. The retry count is reported in the result's
// Metrics.Retries.
func WithRetry(p RetryPolicy) Option {
	return func(q *queryConfig) { q.retry = p }
}

// Row is one query answer projected onto the query's variables.
type Row map[string]Term

// Result is a completed query.
type Result struct {
	// Vars lists the query's variable names, including those nested in
	// compound arguments: those of its relational goals first, then
	// those only builtins name, each in order of first appearance.
	Vars []string
	// Rows holds one map per answer.
	Rows []Row
	// Tuples holds the raw answer vectors, parallel to Rows: the
	// argument values of the query's one relational goal (when its
	// builtin goals name no other variable) or of its one builtin goal,
	// else the values of all its variables in Vars order.
	Tuples [][]Term
	// Plan describes the evaluation plan that ran.
	Plan string
	// Strategy is the strategy that ran.
	Strategy Strategy
	// Metrics reports evaluation effort.
	Metrics Metrics
	// Duration is the end-to-end wall-clock time of the call: admission
	// waits, failed attempts and retry backoff included. The final
	// attempt's evaluation time alone is Metrics.Duration.
	Duration time.Duration
}

// DB is a deductive database: an intensional program plus extensional
// facts. All methods are safe for concurrent use, and reads run in
// parallel: writers (Exec, LoadFacts) build and atomically publish a
// new immutable generation of the program and catalog, while each
// query pins the generation current when it starts and evaluates
// against that snapshot lock-free. Queries therefore never block
// behind a writer or each other, and never observe a half-applied
// load (snapshot isolation at the granularity of one Exec/LoadFacts
// call). Admission control bounds how many evaluations run at once;
// excess queries wait in a bounded FIFO queue and are shed with
// ErrOverloaded once it fills.
type DB struct {
	inner *core.DB
	adm   *admission.Controller

	// maxStale is Config.MaxStaleness: the bound past which a follower
	// sheds reads with ErrStale instead of serving old answers.
	maxStale time.Duration

	// replMu guards the replication lifecycle below. repl is the
	// follower session tailing a leader (nil otherwise); leaders are
	// the replication listeners started by ServeReplication.
	replMu  sync.Mutex
	repl    *replica.Session
	leaders []*replica.Leader
	closed  bool

	// scrubber is the background integrity scrubber of a durable
	// database opened with Config.ScrubEvery > 0; nil otherwise.
	scrubber *scrub.Scrubber
	// divergeHook is installed before any follower session starts and
	// never changes afterwards: it receives the session's ErrDivergence
	// when anti-entropy proves this replica's state wrong. Standalone
	// followers quarantine themselves; cluster nodes quarantine and
	// then repair.
	divergeHook func(error)
}

// Config sizes the serving layer of a database opened with OpenWith.
// The zero value means defaults.
type Config struct {
	// MaxConcurrent bounds how many query evaluations run at once
	// (0 = 128).
	MaxConcurrent int
	// MaxQueue bounds how many queries may wait for an evaluation
	// slot before further queries are shed with ErrOverloaded
	// (0 = 1024; negative = no queue).
	MaxQueue int
	// Dir, when non-empty, makes the database durable: every mutation
	// is appended to a checksummed write-ahead log under Dir (and
	// fsynced) before it is published, periodic compacted snapshots
	// bound the log, and opening the same Dir again recovers exactly
	// the last durable generation — or fails with an error matching
	// ErrCorrupt, never a torn state. Empty means in-memory (the
	// default, unchanged).
	Dir string
	// SnapshotEvery is the number of mutations between automatic
	// compacted snapshots of a durable database (0 = default 256,
	// negative = never; Checkpoint still works). Ignored without Dir.
	SnapshotEvery int
	// ScrubEvery, when positive on a durable database, starts a
	// background integrity scrubber: every ScrubEvery it re-verifies
	// the store under Dir — the same checks as Fsck, with live-writer
	// leniencies — at a bounded read rate, without blocking writers. A
	// pass that finds corruption (or durable state behind the published
	// generation) quarantines the database: reads and mutations shed
	// with ErrQuarantined. Standalone databases stay quarantined (fix
	// the store, reopen); OpenCluster nodes repair themselves by
	// re-seeding from the leader. Zero disables scrubbing (the
	// default); ignored without Dir.
	ScrubEvery time.Duration
	// MaxStaleness bounds how old a replica follower's view may be
	// before it sheds reads with ErrStale instead of silently serving
	// stale answers: a follower whose last known catch-up with the
	// leader is further in the past than this refuses queries until it
	// reconnects and catches up. 0 means serve reads at any staleness.
	// Only meaningful for databases opened with OpenFollower.
	MaxStaleness time.Duration
	// Cluster configures the self-healing replica group opened with
	// OpenCluster (nil = defaults there); ignored by every other Open
	// variant. See ClusterConfig and docs/cluster.md.
	Cluster *ClusterConfig
}

// Open returns an empty in-memory database with default serving
// limits. It never fails; durability is opted into with OpenDir or
// Config.Dir.
func Open() *DB {
	db, err := OpenWith(Config{})
	if err != nil {
		// Unreachable: only durable opens can fail.
		panic(err)
	}
	return db
}

// OpenDir opens (or creates) a durable database rooted at dir with
// default serving limits, recovering whatever state is on disk. See
// Config.Dir for the durability contract.
func OpenDir(dir string) (*DB, error) {
	return OpenWith(Config{Dir: dir})
}

// OpenWith returns a database with explicit serving limits, durable
// if cfg.Dir is set. Recovery failures (I/O errors, or corruption —
// match with ErrCorrupt) are returned before any state is visible.
func OpenWith(cfg Config) (*DB, error) {
	inner := core.NewDB()
	if cfg.Dir != "" {
		var err error
		inner, err = core.OpenDir(cfg.Dir, wal.Options{SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return nil, err
		}
	}
	db := &DB{
		inner: inner,
		adm: admission.New(admission.Config{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
		}),
	}
	db.startScrubber(cfg, nil)
	return db, nil
}

// startScrubber wires the background integrity scrubber of a durable
// database opened with Config.ScrubEvery > 0. A nil onCorrupt means
// the default detection response: quarantine this database (reads and
// mutations shed with ErrQuarantined) with no automatic repair —
// OpenCluster overrides it with quarantine-and-reseed.
func (db *DB) startScrubber(cfg Config, onCorrupt func(*wal.Report)) {
	if cfg.Dir == "" || cfg.ScrubEvery <= 0 {
		return
	}
	if onCorrupt == nil {
		onCorrupt = func(*wal.Report) { db.inner.Quarantine() }
	}
	db.scrubber = scrub.New(scrub.Config{
		Dir:       cfg.Dir,
		Every:     cfg.ScrubEvery,
		Published: db.inner.Generation,
		OnCorrupt: onCorrupt,
	})
	db.scrubber.Start()
}

// ScrubReport returns the most recent background scrub pass's report
// ("", false before the first pass or without Config.ScrubEvery); ok
// reports whether the pass found the store clean.
func (db *DB) ScrubReport() (report string, ok bool) {
	if db.scrubber == nil {
		return "", false
	}
	rep := db.scrubber.LastReport()
	if rep == nil {
		return "", false
	}
	return rep.String(), rep.OK()
}

// OpenFollower opens a read-only replica of the leader serving
// replication at addr (see ServeReplication). The follower tails the
// leader's write-ahead log continuously, re-derives each shipped
// generation bottom-up, and serves queries against its latest applied
// generation; mutations fail with ErrNotLeader until Promote. With
// cfg.Dir set the follower is itself durable — it logs every applied
// record locally before publishing it, recovers through the ordinary
// path, and resumes the stream from its last durable generation.
// cfg.MaxStaleness bounds how old served answers may be (reads past
// the bound are shed with ErrStale); connection loss reconnects with
// capped backoff until Close or Promote.
func OpenFollower(addr string, cfg Config) (*DB, error) {
	inner := core.NewFollower()
	if cfg.Dir != "" {
		var err error
		inner, err = core.OpenFollowerDir(cfg.Dir, wal.Options{SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return nil, err
		}
	}
	db := &DB{
		inner:    inner,
		maxStale: cfg.MaxStaleness,
		adm: admission.New(admission.Config{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
		}),
	}
	// A standalone follower that anti-entropy proves diverged has no
	// cluster to repair it: it quarantines itself and sheds reads with
	// ErrQuarantined rather than keep serving state the leader
	// disowned. (OpenCluster installs quarantine-and-reseed instead.)
	db.divergeHook = func(error) { inner.Quarantine() }
	sess, err := replica.StartFollower(inner, addr, db.followerConfig())
	if err != nil {
		inner.Close()
		return nil, err
	}
	db.repl = sess
	db.startScrubber(cfg, nil)
	return db, nil
}

// followerConfig is the replica session configuration every follower
// session of this database starts with: divergence detection wired to
// the database's quarantine response.
func (db *DB) followerConfig() replica.FollowerConfig {
	return replica.FollowerConfig{OnDivergence: db.divergeHook}
}

// ServeReplication starts serving this database's write-ahead log to
// replica followers on addr (host:port; port 0 picks one) and returns
// the bound address for OpenFollower. Only durable databases can
// lead. Serving is passive with respect to local work: queries and
// mutations proceed unchanged while connected followers tail the log.
// The listener runs until Close.
func (db *DB) ServeReplication(addr string) (string, error) {
	l, err := replica.Serve(db.inner, addr)
	if err != nil {
		return "", err
	}
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.closed {
		l.Close()
		return "", errors.New("chainsplit: database is closed")
	}
	db.leaders = append(db.leaders, l)
	return l.Addr(), nil
}

// IsFollower reports whether the database is a read-only replica
// (mutations fail with ErrNotLeader).
func (db *DB) IsFollower() bool { return db.inner.State().Follower }

// Staleness returns how long ago a follower last knew it was caught
// up with its leader; 0 for a leader or an unreplicated database.
func (db *DB) Staleness() time.Duration {
	db.replMu.Lock()
	sess := db.repl
	db.replMu.Unlock()
	if sess == nil || !db.inner.State().Follower {
		return 0
	}
	return sess.Staleness()
}

// Promote turns a follower into a writable leader at exactly its last
// durable generation: the replication session stops, the local log
// tail is fsynced, and contiguity between the durable log and the
// published state is verified — a follower whose two disagree refuses
// to promote (ErrCorrupt) rather than invent or drop a generation.
// In-flight applies complete or are cut off at a record boundary;
// shipped frames never half-apply. Promoting a leader is a no-op.
func (db *DB) Promote() error {
	db.replMu.Lock()
	sess := db.repl
	db.repl = nil
	db.replMu.Unlock()
	if sess != nil {
		sess.Stop()
	}
	return db.inner.Promote()
}

// Close releases the database: the replication session and any
// replication listeners stop, and a durable database's log is flushed
// and closed. Close is idempotent and safe to call concurrently with
// in-flight queries and Checkpoint: pinned queries keep their
// snapshot; later mutations fail loudly.
func (db *DB) Close() error {
	db.replMu.Lock()
	sess := db.repl
	leaders := db.leaders
	db.repl, db.leaders, db.closed = nil, nil, true
	db.replMu.Unlock()
	if db.scrubber != nil {
		db.scrubber.Stop()
	}
	if sess != nil {
		sess.Stop()
	}
	for _, l := range leaders {
		l.Close()
	}
	return db.inner.Close()
}

// stopSession stops the follower session, if any, leaving the
// database's follower status untouched — the reseed path stops
// streaming before wiping state, then retargets.
func (db *DB) stopSession() {
	db.replMu.Lock()
	sess := db.repl
	db.repl = nil
	db.replMu.Unlock()
	if sess != nil {
		sess.Stop()
	}
}

// Checkpoint writes a compacted snapshot of the current generation and
// prunes the write-ahead log history it supersedes. A no-op for
// in-memory databases.
func (db *DB) Checkpoint() error { return db.inner.Checkpoint() }

// ServerStats is a snapshot of the serving layer's admission counters;
// see Stats.
type ServerStats = admission.Stats

// Stats reports the admission-control counters: queries admitted,
// shed, and canceled while queued, current occupancy, and queue-wait
// times.
func (db *DB) Stats() ServerStats { return db.adm.Stats() }

// Generation returns the database's current generation number; it
// increases by one with every Exec/LoadFacts. A query result's
// Metrics.Generation records which generation it evaluated against.
func (db *DB) Generation() uint64 { return db.inner.Generation() }

// apiRecover converts a panic escaping the public API into an
// *EvalError matching ErrPanic, so callers see a structured failure
// instead of a crashed process. It must be installed with defer on a
// named error return.
func apiRecover(err *error) {
	if r := recover(); r != nil {
		*err = &core.EvalError{
			Strategy: "api",
			PanicVal: r,
			Stack:    string(debug.Stack()),
			Err:      everr.ErrPanic,
		}
	}
}

// Exec parses and loads rules, facts and pragmas. Queries (?- …) in
// the source are rejected — use Query for those.
func (db *DB) Exec(src string) (err error) {
	defer apiRecover(&err)
	res, err := lang.Parse(src)
	if err != nil {
		return err
	}
	if len(res.Queries) > 0 {
		return fmt.Errorf("chainsplit: Exec source contains a query (%s); use Query", res.Queries[0])
	}
	return db.inner.Load(res.Program)
}

// LoadFacts bulk-loads ground tuples into an extensional relation
// without going through the parser — the fast path for large EDBs.
// The batch is published atomically: a concurrent query sees either
// none or all of the tuples, never a torn prefix.
func (db *DB) LoadFacts(pred string, tuples [][]Term) error {
	conv := make([][]term.Term, len(tuples))
	for i, t := range tuples {
		conv[i] = t
	}
	return db.inner.LoadTuples(pred, conv)
}

// ExecFile loads a program from a file.
func (db *DB) ExecFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := db.Exec(string(data)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Query parses and evaluates a query, e.g. "?- sg(ann, Y)." (the ?-
// and trailing period are optional). Conjunctive queries with builtin
// constraints are supported: "?- travel(L, yvr, DT, A, AT, F), F =< 600."
//
// Query is QueryCtx with a background context; use QueryCtx to make
// the evaluation cancelable, or WithTimeout to bound it.
func (db *DB) Query(q string, options ...Option) (*Result, error) {
	return db.QueryCtx(context.Background(), q, options...)
}

// QueryCtx is Query under a context: evaluation stops with an error
// matching ErrCanceled (or ErrDeadline, for a context deadline) soon
// after ctx is done, for every evaluation strategy. A nil ctx is
// treated as context.Background().
//
// Each attempt first passes admission control (waiting in the bounded
// FIFO queue if the server is saturated; time spent there is reported
// in Metrics.AdmissionWait), then evaluates against a snapshot of the
// database pinned at that moment. With WithRetry, transient failures
// are retried with backoff; a retried query may observe a newer
// generation than the first attempt did.
func (db *DB) QueryCtx(ctx context.Context, q string, options ...Option) (res *Result, err error) {
	defer apiRecover(&err)
	goals, qc, err := db.prepare(q, options)
	if err != nil {
		return nil, err
	}
	qc.opts.Ctx = ctx
	obsv.Queries.Inc()
	start := time.Now()
	var out *Result
	retries, err := qc.retry.Do(ctx, func() error {
		r, qerr := db.queryOnce(ctx, goals, qc.opts)
		if qerr == nil {
			out = r
		}
		return qerr
	})
	obsv.Retries.Add(int64(retries))
	if err != nil {
		obsv.QueryErrors.Inc()
		return nil, err
	}
	out.Metrics.Retries = retries
	// End-to-end wall clock: every attempt, admission wait and retry
	// backoff included — not just the final attempt's evaluation time
	// (which is Metrics.Duration).
	out.Duration = time.Since(start)
	return out, nil
}

// queryOnce runs one admission-controlled evaluation attempt against
// the generation current at admission time.
func (db *DB) queryOnce(ctx context.Context, goals []program.Atom, opts core.Options) (*Result, error) {
	wait, release, err := db.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	inner, err := db.inner.Query(goals, opts)
	if err != nil {
		return nil, err
	}
	out := convertResult(inner)
	out.Metrics.AdmissionWait = wait
	return out, nil
}

// admit passes the gates every evaluation passes before it reads
// state, and returns the admission wait and the slot's release.
// Quarantine sheds first — staleness included: a node that cannot
// vouch for its own store must not serve answers from it, however
// fresh they look. On a follower the staleness bound comes next: a
// view older than MaxStaleness is shed with ErrStale before any
// evaluation work, like an admission rejection — a query never
// silently reads old state. Admission control is last.
func (db *DB) admit(ctx context.Context) (time.Duration, func(), error) {
	if err := db.inner.State().ReadRefusal(); err != nil {
		return 0, nil, &core.EvalError{Strategy: "integrity", Err: err}
	}
	if db.maxStale > 0 && db.Staleness() > db.maxStale {
		obsv.ReplicaStaleSheds.Inc()
		return 0, nil, &core.EvalError{Strategy: "replica", Err: everr.ErrStale}
	}
	wait, release, err := db.adm.Acquire(ctx)
	if errors.Is(err, everr.ErrOverloaded) {
		// Shed queries report through the same structured type as
		// evaluation failures, with the admission layer as the
		// "strategy" that failed.
		err = &core.EvalError{Strategy: "admission", Err: err}
	}
	return wait, release, err
}

// convertResult projects a core result into the public shape. Duration
// is left zero: the caller owns the end-to-end clock.
func convertResult(inner *core.Result) *Result {
	out := &Result{
		Vars:    inner.Vars,
		Tuples:  inner.Answers,
		Metrics: inner.Metrics,
	}
	if inner.Plan != nil {
		out.Plan = inner.Plan.String()
		out.Strategy = inner.Plan.Strategy
	}
	if n := len(inner.Answers); n > 0 {
		out.Rows = make([]Row, n)
		for i := range out.Rows {
			out.Rows[i] = inner.Row(i)
		}
	}
	return out
}

// Analysis is the outcome of ExplainAnalyze: the executed query plus
// the rendered calibration report comparing the planner's estimated
// join expansion ratios against the ratios the evaluation observed.
type Analysis struct {
	// Result is the completed query, with tracing, per-literal
	// statistics and per-round delta profiles enabled.
	Result *Result
	// Report is the rendered EXPLAIN ANALYZE text: each split/follow
	// decision with its estimated vs. observed expansion ratio, the
	// observed rule profiles and the per-round delta sizes.
	Report string
	// Flagged counts calibration misses — decisions whose observed
	// ratio landed in a different threshold regime than the estimate.
	Flagged int
}

// ExplainAnalyze runs the query with tracing and per-literal join
// statistics enabled and returns, alongside the complete result, a
// calibration report confronting every chain-split decision's
// estimated expansion ratio with the ratio actually observed. A
// decision whose observation crosses a threshold its estimate was on
// the other side of is flagged — this is how a mispriced connection
// (e.g. a connector relation far denser than the statistics implied)
// shows up as a ⚠ line instead of just a slow query.
func (db *DB) ExplainAnalyze(q string, options ...Option) (*Analysis, error) {
	return db.ExplainAnalyzeCtx(context.Background(), q, options...)
}

// ExplainAnalyzeCtx is ExplainAnalyze under a context; it passes the
// quarantine, staleness and admission gates like a query (no retry —
// analysis is interactive).
func (db *DB) ExplainAnalyzeCtx(ctx context.Context, q string, options ...Option) (an *Analysis, err error) {
	defer apiRecover(&err)
	goals, qc, err := db.prepare(q, options)
	if err != nil {
		return nil, err
	}
	qc.opts.Ctx = ctx
	obsv.Queries.Inc()
	start := time.Now()
	wait, release, err := db.admit(ctx)
	if err != nil {
		obsv.QueryErrors.Inc()
		return nil, err
	}
	defer release()
	rep, err := db.inner.ExplainAnalyze(goals, qc.opts)
	if err != nil {
		obsv.QueryErrors.Inc()
		return nil, err
	}
	out := convertResult(rep.Result)
	out.Metrics.AdmissionWait = wait
	out.Duration = time.Since(start)
	return &Analysis{Result: out, Report: rep.String(), Flagged: rep.Flagged}, nil
}

// MetricsSnapshot renders the process-wide metrics registry as text:
// one metric per line (`name value`, preceded by a `# HELP` comment),
// counters first, then gauges — the shape scrape-based collectors
// ingest. The registry is process-wide: a binary embedding several DBs
// sees the sum over all of them. Counters cover queries, errors,
// retries, admission grants and sheds, generations and fallbacks;
// gauges sample the interned-term dictionaries.
func MetricsSnapshot() string { return obsv.Snapshot() }

// Explain plans a query without executing it and renders the plan.
func (db *DB) Explain(q string, options ...Option) (plan string, err error) {
	defer apiRecover(&err)
	goals, qc, err := db.prepare(q, options)
	if err != nil {
		return "", err
	}
	p, err := db.inner.Explain(goals, qc.opts)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

func (db *DB) prepare(q string, options []Option) ([]program.Atom, queryConfig, error) {
	parsed, err := lang.ParseQuery(q)
	if err != nil {
		return nil, queryConfig{}, err
	}
	var qc queryConfig
	for _, o := range options {
		o(&qc)
	}
	return parsed.Goals, qc, nil
}

// Dump renders the loaded database in the surface syntax: pragmas and
// rules as written, before rectification, then every base fact in the
// order it was loaded.
func (db *DB) Dump() string {
	return db.inner.Dump()
}

// SaveFile writes the loaded program (rules, facts and pragmas, as
// written) to a file in the surface syntax; ExecFile restores it.
func (db *DB) SaveFile(path string) error {
	return os.WriteFile(path, []byte(db.Dump()), 0o644)
}

// CompileInfo renders the compiled chain form of a predicate, given as
// "pred/arity" — the recursion class, chain generating paths and exit
// rules the planner works with.
func (db *DB) CompileInfo(predArity string) (string, error) {
	return db.inner.CompileInfo(predArity)
}

// Prelude is a small standard library of list predicates, ready to
// Exec: member/2, select/3, perm/2, reverse/2, nth/3 and range/2. All
// are written so the finiteness analysis can run them in every useful
// mode (e.g. perm works both ways).
const Prelude = `
member(X, [X|Xs]).
member(X, [Y|Ys]) :- member(X, Ys).

select(X, [X|Xs], Xs).
select(X, [Y|Ys], [Y|Zs]) :- select(X, Ys, Zs).

perm([], []).
perm(Xs, [Z|Zs]) :- select(Z, Xs, Ys), perm(Ys, Zs).

reverse(Xs, Ys) :- rev_acc(Xs, [], Ys).
rev_acc([], Acc, Acc).
rev_acc([X|Xs], Acc, Ys) :- rev_acc(Xs, [X|Acc], Ys).

nth(0, [X|Xs], X).
nth(N, [Y|Ys], X) :- N > 0, minus(N, 1, M), nth(M, Ys, X).

range(0, []).
range(N, [N|B]) :- N > 0, minus(N, 1, M), range(M, B).
`

// ErrNotFinitelyEvaluable matches (errors.Is) errors from queries the
// static analysis proves to have infinitely many answers.
var ErrNotFinitelyEvaluable = core.ErrNotFinitelyEvaluable

// Subst is the variable-binding environment passed to user builtins. It
// is a binding chain, not a map: Walk and Resolve read it, Unify and
// Bind extend it in place, and Clone returns an independent copy in
// O(1), sharing the bindings made so far.
type Subst = term.Subst

// RegisterBuiltin installs a user-defined evaluable predicate,
// available to every DB. finiteModes lists the binding patterns
// (strings over 'b'/'f', one character per argument) under which the
// predicate has finitely many solutions — the finiteness analysis uses
// them to schedule (and, where necessary, chain-split around) calls.
// eval receives an empty substitution and the call's arguments resolved
// by the engine: a bound argument is its value, and a free one is a
// variable of the engine's, which eval binds through the substitution
// (Unify) and must not read by name. It returns one extended
// substitution per solution (the one it received for a single one, a
// Clone of it for each of several); each becomes the call's arguments
// resolved under it. Core builtins cannot be overridden.
//
//	chainsplit.RegisterBuiltin("upper", 2, []string{"bf"},
//	    func(s chainsplit.Subst, args []chainsplit.Term) ([]chainsplit.Subst, error) { … })
func RegisterBuiltin(name string, arity int, finiteModes []string, eval func(Subst, []Term) ([]Subst, error)) error {
	return builtin.Register(name, arity, finiteModes, eval)
}

// ErrBuiltinInsufficient should be returned by user builtins invoked
// with a binding pattern they cannot evaluate finitely.
var ErrBuiltinInsufficient = builtin.ErrInsufficient

// QueryArgs is Query with '?' placeholders substituted positionally by
// the given terms, e.g.
//
//	db.QueryArgs("?- sg(?, Y).", chainsplit.Sym("ann"))
func (db *DB) QueryArgs(q string, args []Term, options ...Option) (*Result, error) {
	filled, err := fillPlaceholders(q, args)
	if err != nil {
		return nil, err
	}
	return db.Query(filled, options...)
}

// fillPlaceholders replaces each '?' outside strings/comments with the
// rendered form of the corresponding term.
func fillPlaceholders(q string, args []Term) (string, error) {
	var b []byte
	argIdx := 0
	inString := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case inString:
			b = append(b, c)
			if c == '\\' && i+1 < len(q) {
				i++
				b = append(b, q[i])
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
			b = append(b, c)
		case c == '?' && i+1 < len(q) && q[i+1] == '-':
			// The ?- query marker is not a placeholder.
			b = append(b, '?', '-')
			i++
		case c == '?':
			if argIdx >= len(args) {
				return "", fmt.Errorf("chainsplit: placeholder %d has no argument", argIdx+1)
			}
			b = append(b, args[argIdx].String()...)
			argIdx++
		default:
			b = append(b, c)
		}
	}
	if argIdx != len(args) {
		return "", fmt.Errorf("chainsplit: %d placeholders filled but %d arguments given", argIdx, len(args))
	}
	return string(b), nil
}

// ParseTerm parses a single term, e.g. "[5,7,1]" — useful for building
// queries programmatically.
func ParseTerm(src string) (Term, error) { return lang.ParseTerm(src) }

// List builds a list term from elements.
func List(elems ...Term) Term { return term.List(elems...) }

// IntList builds a list of integer constants.
func IntList(vs ...int64) Term { return term.IntList(vs...) }

// Int returns an integer constant term.
func Int(v int64) Term { return term.NewInt(v) }

// Sym returns a symbolic constant term.
func Sym(name string) Term { return term.NewSym(name) }

// Str returns a string constant term.
func Str(v string) Term { return term.NewStr(v) }

// Unify attempts to unify two terms under s (extending it in place),
// reporting success — the helper user builtins bind their outputs
// with. Clone s first when backtracking matters.
func Unify(s Subst, a, b Term) bool { return term.Unify(s, a, b) }
