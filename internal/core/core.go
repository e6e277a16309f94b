// Package core implements the query planner — the paper's overall
// architecture (and the LogicBase prototype it describes): a rule
// compiler that classifies recursions and compiles chain forms, and a
// query evaluator that integrates chain-following, chain-split and
// constraint-based evaluation.
//
// Given a query, the planner:
//
//  1. computes the goal adornment and verifies finite evaluability
//     (§2.2); an infinitely evaluable query is rejected statically,
//  2. classifies the queried recursion (linear / nested / nonlinear)
//     and compiles its chain form (§1),
//  3. chooses the evaluation method: magic sets with chain-split
//     binding propagation for function-free recursions (Algorithm
//     3.1), buffered chain-split evaluation for compiled functional
//     chains (Algorithm 3.2) with constraint pushing (Algorithm 3.3),
//     and top-down chain-split scheduling for nested and nonlinear
//     functional recursions (§4),
//  4. executes and reports both answers and the metrics the paper's
//     analysis is phrased in (magic set sizes, buffered edge counts,
//     pruned contexts, iteration profiles).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/adorn"
	"chainsplit/internal/builtin"
	"chainsplit/internal/chain"
	"chainsplit/internal/cost"
	"chainsplit/internal/counting"
	"chainsplit/internal/everr"
	"chainsplit/internal/magic"
	"chainsplit/internal/obsv"
	"chainsplit/internal/partial"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
	"chainsplit/internal/topdown"
	"chainsplit/internal/wal"
)

// Strategy selects an evaluation method.
type Strategy int

const (
	// StrategyAuto lets the planner choose (the paper's architecture).
	StrategyAuto Strategy = iota
	// StrategyMagic is chain-split magic sets (Algorithm 3.1).
	StrategyMagic
	// StrategyMagicFollow is classic magic sets (always propagate).
	StrategyMagicFollow
	// StrategyMagicSplit is always-split magic sets (ablation).
	StrategyMagicSplit
	// StrategyBuffered is buffered chain-split evaluation (Alg 3.2).
	StrategyBuffered
	// StrategyTopDown is tabled top-down with chain-split scheduling.
	StrategyTopDown
	// StrategySeminaive is plain bottom-up evaluation (no magic).
	StrategySeminaive
)

var strategyNames = map[Strategy]string{
	StrategyAuto:        "auto",
	StrategyMagic:       "magic(cost-split)",
	StrategyMagicFollow: "magic(follow)",
	StrategyMagicSplit:  "magic(split)",
	StrategyBuffered:    "buffered-chain-split",
	StrategyTopDown:     "topdown-chain-split",
	StrategySeminaive:   "seminaive",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ErrNotFinitelyEvaluable is wrapped by errors reporting statically
// infinite queries. It wraps everr.ErrUnsafe, the public taxonomy's
// safety sentinel.
var ErrNotFinitelyEvaluable = everr.Tag("query is not finitely evaluable", everr.ErrUnsafe)

// EvalError is the structured evaluation failure attached to every
// error crossing the public API; see everr.EvalError.
type EvalError = everr.EvalError

// Options configures planning and execution.
type Options struct {
	// Strategy overrides the planner's choice.
	Strategy Strategy
	// Ctx, when non-nil, cancels evaluation: engines check it at
	// iteration/level/step boundaries and return everr.ErrCanceled or
	// everr.ErrDeadline.
	Ctx context.Context
	// Timeout, when positive, derives a deadline context from Ctx (or
	// context.Background()) for this call.
	Timeout time.Duration
	// Thresholds for Algorithm 3.1 (zero → cost.DefaultThresholds).
	Thresholds cost.Thresholds
	// CostDepth is the recursion-depth estimate for the quantitative
	// comparison (0 = model default).
	CostDepth int
	// Budgets (0 = the engine's default): MaxIterations 1,000,000
	// fixpoint rounds per SCC and MaxTuples 5,000,000 derived tuples
	// (bottom-up), MaxSteps 10,000,000 resolution steps (top-down),
	// MaxLevels 100,000 and MaxAnswers 1,000,000 (buffered).
	MaxIterations int
	MaxTuples     int
	MaxSteps      int
	MaxLevels     int
	MaxAnswers    int
	// Limit truncates the answer set to the first n answers (0 = all).
	// With Limit 1 a query becomes an existence check — the paper's
	// conclusion calls for integrating chain-split evaluation with
	// existence checking.
	Limit int
	// Workers bounds the goroutines a bottom-up fixpoint round fans its
	// work items across (0 or 1 = serial). Parallel evaluation is
	// bit-identical to serial — same answers, same insertion order,
	// same metrics — and respects Ctx cancellation and the tuple /
	// iteration budgets; see seminaive.Options.Workers.
	Workers int
	// Trace turns on everything an evaluation can record about itself:
	// each attempt records typed phase events
	// (plan/compile/round/merge/level) into a fresh obsv.Tracer,
	// reported as Metrics.TraceEvents, and every engine given that
	// tracer records its profile — per-round deltas (Deltas), per-rule,
	// per-literal join statistics (Rules), per-level buffered profile
	// (Profile) and the worked trace (Events). Disabled tracing costs
	// nothing on the evaluation hot paths.
	Trace bool
	// tracer is the per-attempt trace sink created when Trace is set;
	// a fallback re-run gets its own, so events from a failed attempt
	// never leak into the final result.
	tracer *obsv.Tracer
	// fallbackRerun marks the internal semi-naive re-run after a failed
	// StrategyAuto plan; it suppresses chain compilation (whose failure
	// may be what triggered the fallback) and further fallbacks.
	fallbackRerun bool
}

// Metrics aggregates engine statistics (fields are zero when the
// engine that produces them did not run).
type Metrics struct {
	Duration time.Duration

	// Bottom-up (seminaive / magic).
	Iterations    int
	DerivedTuples int
	Matches       int64
	MagicTuples   int // tuples in magic relations
	Deltas        []seminaive.IterStats

	// Rules is the observed per-rule, per-literal join profile (with
	// Options.Trace, seminaive strategies): firing counts and the
	// realized expansion ratio of every body literal — what
	// ExplainAnalyze compares the cost model's estimates against.
	Rules []seminaive.RuleProfile

	// Buffered (counting).
	Contexts int
	Edges    int
	Pruned   int
	UpJoins  int
	Profile  []counting.LevelStats
	// Events is the chronological buffered-evaluation log (with
	// Options.Trace): the observable form of the paper's worked traces.
	// The structured trace is in TraceEvents.
	Events []string
	// TraceEvents is the structured per-attempt trace (with
	// Options.Trace): typed phase events in emission order. If the
	// trace ring overflowed, the oldest events are absent.
	TraceEvents []obsv.Event

	// Top-down.
	Steps     int
	Calls     int
	TableHits int

	// Serving layer (populated by the public API when admission
	// control / retries are active). AdmissionWait is the total time
	// the query spent waiting for an evaluation slot; Retries counts
	// re-attempts after transient failures; Generation is the database
	// generation the (final) evaluation pinned.
	AdmissionWait time.Duration
	Retries       int
	Generation    uint64

	// Resilience: when StrategyAuto re-ran the query via plain
	// semi-naive after the planned strategy failed, FallbackFrom names
	// the strategy (or "plan" for a planning/compilation failure) and
	// FallbackReason carries the original error.
	FallbackFrom   string
	FallbackReason string
}

// Plan describes what the planner decided, for Explain output.
type Plan struct {
	Strategy  Strategy
	Goal      string
	Adornment string
	Class     program.RecursionClass
	NChains   int
	// Splits describes the chain-split of each recursive rule.
	Splits []string
	// Decisions lists magic propagation decisions (Algorithm 3.1).
	Decisions []magic.Decision
	// Pushed/NotPushed report constraint pushing (Algorithm 3.3).
	Pushed    []string
	NotPushed []string
	Notes     []string
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal:      %s (adornment %s)\n", p.Goal, p.Adornment)
	fmt.Fprintf(&b, "class:     %s", p.Class)
	if p.NChains > 0 {
		fmt.Fprintf(&b, ", %d-chain", p.NChains)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "strategy:  %s\n", p.Strategy)
	for _, s := range p.Splits {
		fmt.Fprintf(&b, "split:     %s\n", s)
	}
	for _, d := range p.Decisions {
		fmt.Fprintf(&b, "propagate: %s → %s (%s)\n", d.Literal, d.Choice, d.Why)
	}
	for _, s := range p.Pushed {
		fmt.Fprintf(&b, "pushed:    %s\n", s)
	}
	for _, s := range p.NotPushed {
		fmt.Fprintf(&b, "residual:  %s\n", s)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(&b, "note:      %s\n", n)
	}
	return b.String()
}

// Result is a completed query.
type Result struct {
	// Vars lists the goal's variable names in order of first
	// appearance, including those nested in compound arguments.
	Vars []string
	// Answers holds one row per answer: the argument vector of the
	// answer atom (see answerAtom).
	Answers [][]term.Term
	// Bindings projects each answer onto Vars.
	Bindings []map[string]term.Term
	Plan     *Plan
	Metrics  Metrics
}

// DB is a deductive database instance: rectified rules plus an EDB
// catalog holding the base facts, organized as a sequence of immutable
// generations.
//
// Writers (Load, LoadTuples) are serialized by writeMu: each build a
// new generation copy-on-write from the current one — rule slices are
// copied with capped capacity so appends never alias, the catalog is
// Snapshot-shared with only the touched relations cloned, and the
// fact-order record is appended past the parent's prefix — and publish
// it with one atomic pointer swap. Readers (Query,
// Explain, …) pin the current generation with one atomic load and then
// run entirely against that immutable state, so any number of queries
// evaluate in parallel, concurrently with writers, without locks and
// without ever observing a half-applied update.
type DB struct {
	writeMu sync.Mutex
	gen     atomic.Pointer[generation]

	// digestScratch is the reusable encode buffer for the anti-entropy
	// digest fold. Guarded by writeMu (only mutators fold), it keeps
	// steady-state writes at zero digest allocations: the first fold
	// ever grows it, every later write reuses it.
	digestScratch []byte

	// store is the write-ahead log backing this database, nil for the
	// in-memory default. Guarded by writeMu: only mutators touch it.
	// When set, every mutation is framed, checksummed and fsynced
	// *before* its generation is published — a crash after Append
	// replays the mutation on reopen; a crash before it returns an
	// error to the caller and publishes nothing.
	store *wal.Store

	// state is the node's role and fencing state (see NodeState),
	// published as one immutable value so every gate reads one
	// consistent snapshot. setState is its only writer.
	state atomic.Pointer[NodeState]
}

// generation is one immutable database state: the rules and pragmas
// (as written and rectified), the EDB catalog (frozen on publish), the
// fact-order record, the digest and a lazily built finiteness
// analysis. Base facts live only in the catalog. Everything reachable
// from a generation is safe for concurrent reads; the analysis carries
// its own internal lock for memoization.
type generation struct {
	seq    uint64
	source *program.Program // rules and pragmas as written; no facts
	prog   *program.Program // rules rectified; no facts
	cat    *relation.Catalog

	// order is the global insertion order of the base facts as
	// (predicate, count) runs; eachFact replays it against each
	// relation's own insertion order. A generation shares its parent's
	// backing array and appends past the parent's length: writers are
	// serialized by writeMu and a generation reads only its own prefix.
	// Runs below orderBase belong to ancestors and are never extended
	// in place.
	order     []factRun
	orderBase int

	// digest is the chained anti-entropy checksum over the fact stream
	// up to this generation: each new fact folds into the parent's
	// digest via the canonical term encoding, so the value is a pure
	// function of the ordered fact stream — identical on a leader and on
	// any replica that applied the same mutations, whatever snapshot or
	// replay path built it. See digest.go.
	digest uint64

	// anMu guards the lazily built analysis. Fact-only generations
	// inherit the previous generation's analysis: finiteness is a
	// property of the rules and the (always finite) EDB.
	anMu     sync.Mutex
	analysis *adorn.Analysis
}

// factRun is n consecutive base facts of one predicate in the global
// fact order.
type factRun struct {
	pred string
	n    int
}

// newGeneration returns an empty generation with sequence number seq.
func newGeneration(seq uint64) *generation {
	return &generation{
		seq:    seq,
		source: &program.Program{},
		prog:   &program.Program{},
		cat:    relation.NewCatalog(),
		digest: digestSeed,
	}
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{}
	db.gen.Store(newGeneration(0))
	db.state.Store(&NodeState{})
	return db
}

// current pins the current generation (one atomic load).
func (db *DB) current() *generation { return db.gen.Load() }

// Generation returns the current generation's sequence number; it
// increases by one per completed Load/LoadTuples.
func (db *DB) Generation() uint64 { return db.current().seq }

// evolve starts the next generation from g: rule and pragma slices are
// copied with capped capacity (appends allocate fresh arrays, so g's
// slices are never aliased by the new generation's writes), the
// catalog is snapshot-shared copy-on-write, and the order record is
// shared up to g's length.
func (g *generation) evolve() *generation {
	return &generation{
		seq:       g.seq + 1,
		source:    cappedProgram(g.source),
		prog:      cappedProgram(g.prog),
		cat:       g.cat.Snapshot(),
		order:     g.order,
		orderBase: len(g.order),
		digest:    g.digest,
	}
}

// cappedProgram copies a program's rules and pragmas with
// full-capacity slices, so that appending to the copy can never write
// into the original's backing arrays.
func cappedProgram(p *program.Program) *program.Program {
	return &program.Program{
		Rules:   p.Rules[:len(p.Rules):len(p.Rules)],
		Pragmas: p.Pragmas[:len(p.Pragmas):len(p.Pragmas)],
	}
}

// addRules appends p's rules, as written and rectified, and its
// pragmas to a generation under construction.
func (g *generation) addRules(p *program.Program) {
	for _, r := range p.Rules {
		g.source.Rules = append(g.source.Rules, r)
		g.prog.Rules = append(g.prog.Rules, program.RectifyRule(r))
	}
	g.source.Pragmas = append(g.source.Pragmas, p.Pragmas...)
	g.prog.Pragmas = append(g.prog.Pragmas, p.Pragmas...)
}

// addFact is the one way a base fact enters a generation under
// construction: it checks the fact's arity against its relation and
// its groundness, inserts it, records it in the order record and folds
// it into the digest. A duplicate changes nothing. scratch is the
// digest fold's reusable encode buffer.
func (g *generation) addFact(pred string, args []term.Term, scratch *[]byte) error {
	if rel := g.cat.Get(pred); rel != nil && rel.Arity() != len(args) {
		return fmt.Errorf("core: relation %s exists with arity %d, fact %s has arity %d",
			pred, rel.Arity(), program.Atom{Pred: pred, Args: args}, len(args))
	}
	for _, v := range args {
		if !v.Ground() {
			return fmt.Errorf("core: fact %s is not ground", program.Atom{Pred: pred, Args: args})
		}
	}
	if !g.cat.Ensure(pred, len(args)).Insert(relation.Tuple(args)) {
		return nil
	}
	if n := len(g.order); n > g.orderBase && g.order[n-1].pred == pred {
		g.order[n-1].n++
	} else {
		g.order = append(g.order, factRun{pred: pred, n: 1})
	}
	g.digest, *scratch = digestFact(g.digest, pred, args, *scratch)
	return nil
}

// eachFact calls fn on every base fact of g in global insertion order,
// the order the fact stream was written in.
func (g *generation) eachFact(fn func(pred string, tup relation.Tuple)) {
	next := make(map[string]int)
	for _, run := range g.order {
		rel, from := g.cat.Get(run.pred), next[run.pred]
		for i := from; i < from+run.n; i++ {
			fn(run.pred, rel.At(i))
		}
		next[run.pred] = from + run.n
	}
}

// publish freezes the new generation's catalog and makes it current.
func (db *DB) publish(next *generation) {
	next.cat.Freeze()
	db.gen.Store(next)
	obsv.Generations.Inc()
}

// writable refuses a mutation the node state refuses (see
// NodeState.WriteRefusal), counting refused writes on a fenced
// ex-leader. Callers hold writeMu.
func (db *DB) writable() error {
	err := db.State().WriteRefusal()
	if err == everr.ErrFenced {
		obsv.FencedWrites.Inc()
	}
	return err
}

// commit logs rec to the durable store (if any) and then publishes
// next: durable before visible. A logging failure publishes nothing.
// Callers hold writeMu.
func (db *DB) commit(next *generation, rec wal.Record) error {
	if db.store != nil {
		if err := db.store.Append(rec); err != nil {
			return fmt.Errorf("core: durable log append failed, generation %d not applied: %w", next.seq, err)
		}
	}
	db.publish(next)
	db.maybeSnapshotLocked(next)
	return nil
}

// Load adds rules, facts and pragmas from a parsed program by
// publishing a new generation. It may be called repeatedly and
// concurrently with queries; in-flight queries keep evaluating against
// the generation they pinned. Analyses are recomputed on the next
// query after a rule change. A fact whose arity disagrees with its
// relation, or that is not ground, fails the whole load and leaves the
// database unchanged.
//
// On a durable database the rendered program is logged to the
// write-ahead log before the generation is published; a logging
// failure returns an error and leaves the database unchanged.
func (db *DB) Load(p *program.Program) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writable(); err != nil {
		return err
	}
	next, err := db.buildProgramGen(p)
	if err != nil {
		return err
	}
	rec := wal.Record{Seq: next.seq, Type: wal.RecExec}
	if db.store != nil {
		rec.Src = p.String()
	}
	return db.commit(next, rec)
}

// buildProgramGen builds (but does not publish) the generation that
// applies program p on top of the current one. Callers hold writeMu.
func (db *DB) buildProgramGen(p *program.Program) (*generation, error) {
	cur := db.current()
	next := cur.evolve()
	next.addRules(p)
	for _, f := range p.Facts {
		if err := next.addFact(f.Pred, f.Args, &db.digestScratch); err != nil {
			return nil, err
		}
	}
	if len(p.Rules) == 0 {
		next.analysis = cur.peekAnalysis()
	}
	return next, nil
}

// analysisFor returns the generation's adornment analysis, building it
// on first use. The analysis is shared by every query over this
// generation (and by fact-only descendants); its memo table is
// internally synchronized.
func (g *generation) analysisFor() *adorn.Analysis {
	g.anMu.Lock()
	defer g.anMu.Unlock()
	if g.analysis == nil {
		g.analysis = adorn.NewAnalysis(g.prog)
	}
	return g.analysis
}

// peekAnalysis returns the analysis if already built, else nil.
func (g *generation) peekAnalysis() *adorn.Analysis {
	g.anMu.Lock()
	defer g.anMu.Unlock()
	return g.analysis
}

// Program returns the current rectified rules and pragmas
// (read-only). Its Facts are empty: base facts live only in the
// catalog (see Catalog).
func (db *DB) Program() *program.Program { return db.current().prog }

// Dump renders the database in the surface syntax: pragmas and rules
// as written, then every base fact in the order it was loaded.
func (db *DB) Dump() string {
	g := db.current()
	var b strings.Builder
	b.WriteString(g.source.String())
	g.eachFact(func(pred string, tup relation.Tuple) {
		b.WriteString(program.Atom{Pred: pred, Args: tup}.String())
		b.WriteString(".\n")
	})
	return b.String()
}

// CompileInfo renders the chain form of a predicate ("pred/arity"):
// its recursion class, chain generating paths and exit rules — the
// paper's compiled form, e.g. sg's two parent chains.
func (db *DB) CompileInfo(key string) (string, error) {
	g := db.current()
	graph := program.NewDepGraph(g.prog)
	comp, err := chain.Compile(g.prog, graph, key)
	if err != nil {
		return "", err
	}
	out := comp.String()
	for _, n := range comp.Notes {
		out += "  note: " + n + "\n"
	}
	return out, nil
}

// Catalog returns the current generation's EDB catalog. Published
// catalogs are frozen: read freely, but obtain writable relations only
// through a Snapshot.
func (db *DB) Catalog() *relation.Catalog { return db.current().cat }

// goalAndConstraints splits a conjunctive query into its (single)
// relational goal and builtin side constraints.
func goalAndConstraints(goals []program.Atom) (program.Atom, []program.Atom, error) {
	var rel []program.Atom
	var cons []program.Atom
	for _, g := range goals {
		if g.IsBuiltin() {
			cons = append(cons, g)
		} else {
			rel = append(rel, g)
		}
	}
	switch {
	case len(rel) == 0:
		return program.Atom{}, nil, fmt.Errorf("core: query has no relational goal")
	case len(rel) == 1 && !rel[0].Negated:
		return rel[0], cons, nil
	default:
		return program.Atom{}, nil, fmt.Errorf("core: conjunctive/negated queries are evaluated top-down; got %d relational goals", len(rel))
	}
}

// Query plans and executes a conjunctive query against the current
// generation, pinned once at entry: concurrent Load/LoadTuples calls
// never affect an in-flight evaluation. Failures cross this boundary
// as a structured *EvalError wrapping one of the everr taxonomy
// sentinels; internal panics are contained (one bad query must not
// take the process down), and a failed StrategyAuto plan falls back to
// plain semi-naive evaluation where that is sound.
func (db *DB) Query(goals []program.Atom, opts Options) (*Result, error) {
	return db.current().Query(goals, opts)
}

// Query evaluates the query against this (immutable) generation; see
// DB.Query. Any number of goroutines may query one generation at once.
func (g *generation) Query(goals []program.Atom, opts Options) (*Result, error) {
	start := time.Now()
	opts = g.applyPragmas(opts)
	if opts.Timeout > 0 {
		base := opts.Ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, opts.Timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	res, err := g.queryWithFallback(goals, opts)
	if res != nil {
		if opts.Limit > 0 && len(res.Answers) > opts.Limit {
			res.Answers = res.Answers[:opts.Limit]
		}
		res.Metrics.Duration = time.Since(start)
		res.Metrics.Generation = g.seq
		res.finish(goals)
	}
	if err != nil {
		err = wrapEvalError(err, goals, res)
	}
	return res, err
}

// wrapEvalError attaches strategy/predicate/progress context to an
// evaluation failure, unless it already carries it.
func wrapEvalError(err error, goals []program.Atom, res *Result) error {
	var ee *EvalError
	if errors.As(err, &ee) {
		return err
	}
	e := &EvalError{Strategy: "plan", Err: err}
	if g, _, gerr := goalAndConstraints(goals); gerr == nil {
		e.Pred = g.Key()
	} else if len(goals) > 0 {
		e.Pred = goals[0].Key()
	}
	if res != nil {
		if res.Plan != nil && res.Plan.Strategy != StrategyAuto {
			e.Strategy = res.Plan.Strategy.String()
		}
		e.Iteration = res.Metrics.Iterations
		if e.Iteration == 0 {
			e.Iteration = res.Metrics.Steps
		}
	}
	return e
}

// queryWithFallback implements graceful degradation: when the planner
// chose a chain-split strategy (magic or buffered) under StrategyAuto
// and it failed for a reason other than exhaustion or cancellation —
// including a contained panic — the query is re-run with plain
// semi-naive evaluation, the always-applicable bottom-up baseline for
// function-free programs, and the metrics record the degradation.
func (g *generation) queryWithFallback(goals []program.Atom, opts Options) (*Result, error) {
	res, err := g.queryContained(goals, opts)
	if err == nil || opts.Strategy != StrategyAuto || opts.fallbackRerun {
		return res, err
	}
	from, ok := fallbackFrom(res, err)
	if !ok {
		return res, err
	}
	fopts := opts
	fopts.Strategy = StrategySeminaive
	fopts.fallbackRerun = true
	res2, err2 := g.queryContained(goals, fopts)
	if err2 != nil {
		// The baseline failed too: surface the original failure.
		return res, err
	}
	obsv.Fallbacks.Inc()
	res2.Metrics.FallbackFrom = from
	res2.Metrics.FallbackReason = err.Error()
	if res2.Plan != nil {
		res2.Plan.Notes = append(res2.Plan.Notes,
			fmt.Sprintf("fell back to semi-naive from %s: %v", from, err))
	}
	return res2, nil
}

// fallbackFrom decides whether a StrategyAuto failure is eligible for
// the semi-naive fallback and names the strategy degraded from.
// Budget, cancellation and deadline failures are not eligible (the
// baseline would only burn the same budget again), nor are static
// finiteness rejections (a property of the query, not the plan), nor
// failures of semi-naive or top-down themselves (no safer baseline
// exists below them).
func fallbackFrom(res *Result, err error) (string, bool) {
	if errors.Is(err, everr.ErrBudget) || errors.Is(err, everr.ErrCanceled) ||
		errors.Is(err, everr.ErrDeadline) || errors.Is(err, ErrNotFinitelyEvaluable) {
		return "", false
	}
	if res == nil || res.Plan == nil {
		return "plan", true
	}
	switch res.Plan.Strategy {
	case StrategyMagic, StrategyMagicFollow, StrategyMagicSplit, StrategyBuffered:
		return res.Plan.Strategy.String(), true
	case StrategyAuto:
		// Planning failed before a strategy was chosen (e.g. chain
		// compilation).
		return "plan", true
	}
	return "", false
}

// queryContained runs the query with panic containment: an internal
// invariant violation in any engine is recovered here and converted
// into an *EvalError carrying the panic value and stack, so an engine
// bug degrades one query instead of crashing the process.
func (g *generation) queryContained(goals []program.Atom, opts Options) (res *Result, err error) {
	var pl *Plan
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		strategy := "plan"
		if pl != nil && pl.Strategy != StrategyAuto {
			strategy = pl.Strategy.String()
		}
		res = &Result{Plan: pl}
		err = &EvalError{
			Strategy: strategy,
			PanicVal: r,
			Stack:    string(debug.Stack()),
			Err:      everr.ErrPanic,
		}
	}()
	return g.query(goals, opts, &pl)
}

// LoadTuples bulk-loads ground tuples into an extensional relation,
// bypassing the parser, as one atomic generation: concurrent queries
// see either none or all of the batch, never a torn prefix. Every
// tuple must be ground and of the relation's arity; validation
// failures leave the database unchanged.
func (db *DB) LoadTuples(pred string, tuples [][]term.Term) error {
	if len(tuples) == 0 {
		return nil
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writable(); err != nil {
		return err
	}
	next, err := db.buildTuplesGen(pred, tuples)
	if err != nil {
		return err
	}
	rec := wal.Record{Seq: next.seq, Type: wal.RecFacts, Pred: pred}
	if db.store != nil {
		rec.Tuples = make([]relation.Tuple, len(tuples))
		for i, tup := range tuples {
			rec.Tuples[i] = relation.Tuple(tup)
		}
	}
	return db.commit(next, rec)
}

// buildTuplesGen builds (but does not publish) the generation that
// applies a bulk batch. Callers hold writeMu.
func (db *DB) buildTuplesGen(pred string, tuples [][]term.Term) (*generation, error) {
	cur := db.current()
	next := cur.evolve()
	next.analysis = cur.peekAnalysis() // fact-only: finiteness unchanged
	for _, tup := range tuples {
		if err := next.addFact(pred, tup, &db.digestScratch); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// Explain plans the query without running it (buffered/topdown plans
// include split analysis; execution metrics are absent).
func (db *DB) Explain(goals []program.Atom, opts Options) (*Plan, error) {
	return db.current().Explain(goals, opts)
}

// Explain plans the query against this generation without running it.
func (g *generation) Explain(goals []program.Atom, opts Options) (*Plan, error) {
	opts = g.applyPragmas(opts)
	goal, cons, err := goalAndConstraints(goals)
	if err != nil {
		// Fall back: describe the conjunction as top-down.
		return &Plan{Strategy: StrategyTopDown, Goal: atomsString(goals)}, nil
	}
	plan, _, err := g.plan(goal, cons, opts)
	return plan, err
}

func atomsString(goals []program.Atom) string {
	parts := make([]string, len(goals))
	for i, g := range goals {
		parts[i] = g.String()
	}
	return strings.Join(parts, ", ")
}

// planned bundles everything needed to execute.
type planned struct {
	goal     program.Atom
	cons     []program.Atom
	an       *adorn.Analysis
	graph    *program.DepGraph
	comp     *chain.Compiled
	push     *partial.Result
	strategy Strategy
}

// applyPragmas folds program pragmas into the options where the caller
// has not overridden them:
//
//	@threshold split 4.    chain-split threshold (Algorithm 3.1)
//	@threshold follow 2.   chain-following threshold
//	@depth 8.              cost-model recursion-depth estimate
//	@strategy buffered.    default strategy (auto|magic|magic_follow|
//	                       magic_split|buffered|topdown|seminaive)
func (g *generation) applyPragmas(opts Options) Options {
	strategies := map[string]Strategy{
		"auto": StrategyAuto, "magic": StrategyMagic, "magic_follow": StrategyMagicFollow,
		"magic_split": StrategyMagicSplit, "buffered": StrategyBuffered,
		"topdown": StrategyTopDown, "seminaive": StrategySeminaive,
	}
	pragmaSplit, pragmaFollow := 0.0, 0.0
	for _, pr := range g.prog.Pragmas {
		switch pr.Name {
		case "threshold":
			if len(pr.Args) != 2 {
				continue
			}
			kind, kok := pr.Args[0].(term.Sym)
			val, vok := pr.Args[1].(term.Int)
			if !kok || !vok {
				continue
			}
			switch kind.Name {
			case "split":
				pragmaSplit = float64(val.V)
			case "follow":
				pragmaFollow = float64(val.V)
			}
		case "depth":
			if len(pr.Args) == 1 && opts.CostDepth == 0 {
				if v, ok := pr.Args[0].(term.Int); ok {
					opts.CostDepth = int(v.V)
				}
			}
		case "strategy":
			if len(pr.Args) == 1 && opts.Strategy == StrategyAuto {
				if s, ok := pr.Args[0].(term.Sym); ok {
					if strat, known := strategies[s.Name]; known {
						opts.Strategy = strat
					}
				}
			}
		}
	}
	// Pragma thresholds apply only when the caller set none; missing
	// halves take the library defaults.
	if opts.Thresholds == (cost.Thresholds{}) && (pragmaSplit > 0 || pragmaFollow > 0) {
		opts.Thresholds = cost.DefaultThresholds
		if pragmaSplit > 0 {
			opts.Thresholds.SplitAbove = pragmaSplit
		}
		if pragmaFollow > 0 {
			opts.Thresholds.FollowBelow = pragmaFollow
		}
	}
	return opts
}

// plan decides the strategy for a single-goal query. Callers must have
// applied pragmas to opts already (Query and Explain do).
func (g *generation) plan(goal program.Atom, cons []program.Atom, opts Options) (*Plan, *planned, error) {
	pl := &Plan{Goal: goal.String(), Adornment: adorn.GoalAdornment(goal)}
	pd := &planned{goal: goal, cons: cons}

	if builtin.IsBuiltin(goal.Pred, goal.Arity()) {
		pl.Strategy = StrategyTopDown
		pl.Notes = append(pl.Notes, "builtin goal evaluated directly")
		pd.strategy = StrategyTopDown
		return pl, pd, nil
	}

	idb := g.prog.IDB()
	if !idb[goal.Key()] {
		pl.Strategy = StrategySeminaive
		pl.Notes = append(pl.Notes, "EDB goal: direct relation lookup")
		pd.strategy = StrategySeminaive
		return pl, pd, nil
	}

	pd.an = g.analysisFor()
	pd.graph = pd.an.Graph()
	pl.Class = program.Classify(g.prog, pd.graph, goal.Key())

	// Static finiteness check (§2.2).
	if !pd.an.Finite(goal.Pred, goal.Arity(), pl.Adornment) {
		return pl, nil, fmt.Errorf("%w: %s under adornment %s (%s)",
			ErrNotFinitelyEvaluable, goal.Key(), pl.Adornment,
			pd.an.Explain(goal.Pred, goal.Arity(), pl.Adornment))
	}

	var comp *chain.Compiled
	if !opts.fallbackRerun {
		// The fallback re-run skips chain compilation: semi-naive does
		// not need the chain form, and a compilation failure may be the
		// very reason the fallback is running.
		var err error
		comp, err = chain.CompileCtx(opts.Ctx, g.prog, pd.graph, goal.Key())
		if err != nil {
			if errors.Is(err, everr.ErrCanceled) || errors.Is(err, everr.ErrDeadline) {
				return pl, nil, err
			}
			return pl, nil, fmt.Errorf("%w: %v", everr.ErrPlan, err)
		}
		pd.comp = comp
		pl.NChains = comp.NChains()
		opts.tracer.Point(obsv.PhaseCompile, pl.Goal, int64(pl.NChains), 0)
	}

	functional := g.reachesFunctional(goal.Key(), pd.graph)
	boundAny := strings.ContainsRune(pl.Adornment, 'b')
	negation := g.usesNegation()

	chosen := opts.Strategy
	if chosen == StrategyAuto {
		switch {
		case pl.Class == program.ClassNonrecursive && !functional:
			chosen = StrategySeminaive
			if boundAny {
				chosen = StrategyMagic
			}
		case !functional:
			if boundAny {
				chosen = StrategyMagic
			} else {
				chosen = StrategySeminaive
			}
		case (pl.Class == program.ClassLinear || pl.Class == program.ClassNestedLinear) && boundAny && comp != nil && len(comp.RecRules) > 0:
			chosen = StrategyBuffered
		case pl.Class == program.ClassMutual && boundAny && comp != nil && g.linearMutualSCC(goal.Key(), pd.graph):
			// Mutual recursion whose every rule has at most one
			// same-SCC body literal: the buffered evaluator's context
			// graph spans the SCC.
			chosen = StrategyBuffered
		default:
			chosen = StrategyTopDown
		}
		// Magic over stratified negation uses the stratum-wise
		// construction (materialize negated strata, then rewrite) —
		// except when the goal itself is consumed under negation, in
		// which case no goal-direction remains.
		if negation && (chosen == StrategyMagic || chosen == StrategyMagicFollow || chosen == StrategyMagicSplit) {
			if pd.graph.NegClosure()[goal.Key()] {
				chosen = StrategySeminaive
				pl.Notes = append(pl.Notes, "goal is consumed under negation: evaluated by stratified semi-naive")
			}
		}
	}
	pd.strategy = chosen
	pl.Strategy = chosen

	// Describe splits for chain strategies.
	if comp != nil && (chosen == StrategyBuffered || chosen == StrategyTopDown) {
		for _, rr := range comp.RecRules {
			sp, err := chain.ComputeSplit(pd.an, rr, pl.Adornment)
			if err != nil {
				pl.Splits = append(pl.Splits, fmt.Sprintf("%s: %v", rr.Rule, err))
				continue
			}
			pl.Splits = append(pl.Splits, describeSplit(rr, sp))
		}
	}

	// Constraint pushing (Algorithm 3.3) for buffered plans.
	if chosen == StrategyBuffered && len(cons) > 0 && comp != nil {
		push, err := partial.PushConstraints(pd.an, comp, g.cat, goal, cons)
		if err != nil {
			return pl, nil, err
		}
		pd.push = push
		pl.Pushed = push.Pushed
		pl.NotPushed = push.NotPushed
	}
	return pl, pd, nil
}

func describeSplit(rr chain.RecRule, sp chain.Split) string {
	var ev, de []string
	for _, i := range sp.Eval {
		ev = append(ev, rr.Rule.Body[i].String())
	}
	for _, i := range sp.Delayed {
		de = append(de, rr.Rule.Body[i].String())
	}
	kind := "efficiency/connectivity"
	if sp.Mandatory {
		kind = "mandatory (finiteness)"
	}
	return fmt.Sprintf("eval {%s} ⊳ rec^%s ⊳ delayed {%s} [%s]",
		strings.Join(ev, ", "), sp.RecAd, strings.Join(de, ", "), kind)
}

// linearMutualSCC reports whether every rule of every predicate in the
// goal's SCC has at most one same-SCC body literal — the shape the
// buffered evaluator's SCC-wide context graph handles.
func (g *generation) linearMutualSCC(key string, dg *program.DepGraph) bool {
	id := dg.SCCOf(key)
	if id < 0 {
		return false
	}
	inSCC := make(map[string]bool)
	for _, m := range dg.SCCs[id] {
		inSCC[m] = true
	}
	for _, r := range g.prog.Rules {
		if !inSCC[r.Head.Key()] {
			continue
		}
		same := 0
		for _, b := range r.Body {
			if !b.IsBuiltin() && !b.Negated && inSCC[b.Key()] {
				same++
			}
		}
		if same > 1 {
			return false
		}
	}
	return true
}

// usesNegation reports whether any rule body contains a negated
// literal.
func (g *generation) usesNegation() bool {
	for _, r := range g.prog.Rules {
		for _, b := range r.Body {
			if b.Negated {
				return true
			}
		}
	}
	return false
}

// reachesFunctional reports whether any rule reachable from the goal's
// predicate uses a functional builtin (cons, plus, times) — the
// paper's functional-recursion criterion.
func (g *generation) reachesFunctional(key string, dg *program.DepGraph) bool {
	reach := dg.Reachable(key)
	for _, r := range g.prog.Rules {
		if !reach[r.Head.Key()] {
			continue
		}
		for _, b := range r.Body {
			switch b.Pred {
			case "cons", "plus", "times":
				return true
			}
		}
	}
	return false
}

// query wraps dispatch with the per-attempt structured trace: a fresh
// tracer per call (a fallback re-run is a separate call and gets its
// own), spanning the whole attempt, whose events land in the attempt's
// own Metrics.
func (g *generation) query(goals []program.Atom, opts Options, track **Plan) (*Result, error) {
	if opts.Trace && opts.tracer == nil {
		opts.tracer = obsv.NewTracer(0)
	}
	tr := opts.tracer
	var goalName string
	if tr.Enabled() {
		goalName = atomsString(goals)
		tr.Begin(obsv.PhaseQuery, goalName)
		if opts.fallbackRerun {
			tr.Point(obsv.PhaseFallback, "seminaive", 0, 0)
		}
	}
	res, err := g.dispatch(goals, opts, track)
	if res != nil {
		tr.End(obsv.PhaseQuery, goalName, int64(len(res.Answers)))
		res.Metrics.TraceEvents = tr.Events()
	}
	return res, err
}

// dispatch plans and dispatches one query. track, when non-nil,
// receives the plan as soon as it exists, so the panic-containment
// layer can attribute a recovered panic to the strategy that was
// running.
func (g *generation) dispatch(goals []program.Atom, opts Options, track **Plan) (*Result, error) {
	setTrack := func(pl *Plan) {
		if track != nil && pl != nil {
			*track = pl
		}
	}
	goal, cons, err := goalAndConstraints(goals)
	if err != nil {
		// General conjunction: evaluate top-down.
		setTrack(&Plan{Strategy: StrategyTopDown, Goal: atomsString(goals)})
		return g.runTopDownConjunction(goals, opts)
	}
	pl, pd, err := g.plan(goal, cons, opts)
	setTrack(pl)
	if err != nil {
		return &Result{Plan: pl}, err
	}
	opts.tracer.Point(obsv.PhasePlan, strategyNames[pd.strategy], int64(len(pl.Splits)), 0)
	res := &Result{Plan: pl}
	switch pd.strategy {
	case StrategySeminaive:
		if g.prog.IDB()[goal.Key()] || builtin.IsBuiltin(goal.Pred, goal.Arity()) {
			return g.runSeminaive(res, goal, cons, opts)
		}
		return answersOf(res, g.cat.Get(goal.Pred), goal, cons)
	case StrategyMagic, StrategyMagicFollow, StrategyMagicSplit:
		return g.runMagic(res, pd, opts)
	case StrategyBuffered:
		r, err := g.runBuffered(res, pd, opts)
		if err != nil && !errors.Is(err, counting.ErrBudget) &&
			!errors.Is(err, everr.ErrCanceled) && !errors.Is(err, everr.ErrDeadline) {
			// Fall back to top-down scheduling (e.g. exit rules not
			// schedulable under this adornment, or a nonlinear rule).
			note := fmt.Sprintf("buffered evaluation failed (%v); fell back to top-down", err)
			setTrack(&Plan{Strategy: StrategyTopDown, Goal: atomsString(goals)})
			r2, err2 := g.runTopDownConjunction(goals, opts)
			if r2 != nil && r2.Plan != nil {
				r2.Plan.Notes = append(r2.Plan.Notes, note)
			}
			return r2, err2
		}
		return r, err
	default:
		return g.runTopDownConjunction(goals, opts)
	}
}

func (g *generation) runSeminaive(res *Result, goal program.Atom, cons []program.Atom, opts Options) (*Result, error) {
	// Snapshot, not Clone: the engine's writes copy-on-write only the
	// relations it actually derives into, and the generation's frozen
	// relations are shared untouched.
	cat := g.cat.Snapshot()
	// Evaluate only the goal's dependency cone: an unrelated divergent
	// recursion elsewhere in the program must not hang (or even slow)
	// this query.
	if err := evalBottomUp(res, g.prog, cat, opts, goal.Key()); err != nil {
		return res, err
	}
	return answersOf(res, cat.Get(goal.Pred), goal, cons)
}

func (g *generation) runMagic(res *Result, pd *planned, opts Options) (*Result, error) {
	cfg := magic.Config{
		Policy:        magic.PolicyCost,
		Model:         &cost.Model{Cat: g.cat, Depth: opts.CostDepth},
		Thresholds:    opts.Thresholds,
		Supplementary: true,
		Ctx:           opts.Ctx,
	}
	switch pd.strategy {
	case StrategyMagicFollow:
		cfg.Policy = magic.PolicyFollow
	case StrategyMagicSplit:
		cfg.Policy = magic.PolicySplit
	}
	var rw *magic.Rewritten
	var err error
	cat := g.cat.Snapshot()
	if g.usesNegation() {
		// Stratum-wise construction: materialize the negated strata
		// first, then magic-rewrite the positive remainder against
		// them.
		var phase1 *program.Program
		rw, phase1, err = magic.RewriteStratified(g.prog, pd.goal, cfg)
		if err != nil {
			return res, err
		}
		if len(phase1.Rules) > 0 {
			if err := evalBottomUp(res, phase1, cat, opts, ""); err != nil {
				return res, err
			}
			res.Plan.Notes = append(res.Plan.Notes,
				fmt.Sprintf("stratified negation: %d rule(s) materialized before the magic phase", len(phase1.Rules)))
		}
	} else {
		rw, err = magic.Rewrite(g.prog, pd.goal, cfg)
		if err != nil {
			return res, err
		}
	}
	res.Plan.Decisions = rw.Decisions
	err = evalBottomUp(res, rw.Program, cat, opts, "")
	for _, name := range cat.Names() {
		if strings.HasPrefix(name, "m$") {
			res.Metrics.MagicTuples += cat.Get(name).Len()
		}
	}
	if err != nil {
		return res, err
	}
	return answersOf(res, cat.Get(rw.AnswerPred), pd.goal, pd.cons)
}

// evalBottomUp runs the semi-naive engine over p against cat (which it
// mutates) under opts' budgets, and adds the engine's statistics into
// res.Metrics. goal, when non-empty, restricts evaluation to that
// predicate's dependency cone.
func evalBottomUp(res *Result, p *program.Program, cat *relation.Catalog, opts Options, goal string) error {
	stats, err := seminaive.Eval(p, cat, seminaive.Options{
		Ctx:           opts.Ctx,
		MaxIterations: opts.MaxIterations,
		MaxTuples:     opts.MaxTuples,
		Workers:       opts.Workers,
		Tracer:        opts.tracer,
		Goal:          goal,
	})
	res.Metrics.Iterations += stats.Iterations
	res.Metrics.DerivedTuples += stats.DerivedTuples
	res.Metrics.Matches += stats.Matches
	res.Metrics.Deltas = append(res.Metrics.Deltas, stats.Deltas...)
	res.Metrics.Rules = append(res.Metrics.Rules, stats.Rules...)
	return err
}

// answersOf is the answer step of every relation-backed strategy: it
// selects rel's tuples on the goal's ground arguments through rel's
// index, then keeps those that match the goal's shape and satisfy the
// residual constraints (partial.FilterAnswers).
func answersOf(res *Result, rel *relation.Relation, goal program.Atom, cons []program.Atom) (*Result, error) {
	if rel == nil || rel.Arity() != goal.Arity() {
		return res, nil
	}
	var cols []int
	var vals relation.Tuple
	for i, a := range goal.Args {
		if a.Ground() {
			cols = append(cols, i)
			vals = append(vals, a)
		}
	}
	var raw [][]term.Term
	if len(cols) == 0 {
		raw = make([][]term.Term, 0, rel.Len())
		rel.Each(func(tup relation.Tuple) bool {
			raw = append(raw, tup)
			return true
		})
	} else {
		m := rel.Index(cols).Probe(vals)
		raw = make([][]term.Term, m.Len())
		for i := range raw {
			raw[i] = m.At(i)
		}
	}
	ans, err := partial.FilterAnswers(goal, cons, raw)
	if err != nil {
		return res, err
	}
	res.Answers = ans
	return res, nil
}

func (g *generation) runBuffered(res *Result, pd *planned, opts Options) (*Result, error) {
	copts := counting.Options{
		Ctx:        opts.Ctx,
		MaxLevels:  opts.MaxLevels,
		MaxAnswers: opts.MaxAnswers,
		Tracer:     opts.tracer,
	}
	if pd.push != nil {
		copts.Acc = pd.push.Acc
	}
	ev := counting.New(g.prog, g.cat, pd.comp, copts)
	raw, err := ev.Query(pd.goal)
	st := ev.Stats()
	res.Metrics.Contexts = st.Contexts
	res.Metrics.Edges = st.Edges
	res.Metrics.Pruned = st.Pruned
	res.Metrics.UpJoins = st.UpJoins
	res.Metrics.Profile = st.Profile
	res.Metrics.Events = st.Events
	if err != nil {
		return res, err
	}
	ans, err := partial.FilterAnswers(pd.goal, pd.cons, raw)
	if err != nil {
		return res, err
	}
	res.Answers = ans
	return res, nil
}

func (g *generation) runTopDownConjunction(goals []program.Atom, opts Options) (*Result, error) {
	res := &Result{Plan: &Plan{Strategy: StrategyTopDown, Goal: atomsString(goals)}}
	// The top-down engine seeds program facts into its catalog; a
	// snapshot keeps those (usually no-op) writes off the generation.
	e := topdown.New(g.prog, g.cat.Snapshot(), topdown.Options{Ctx: opts.Ctx, MaxSteps: opts.MaxSteps, Tracer: opts.tracer})
	answers, err := e.SolveConjunction(goals)
	st := e.Stats()
	res.Metrics.Steps = st.Steps
	res.Metrics.Calls = st.Calls
	res.Metrics.TableHits = st.TableHits
	if err != nil {
		return res, err
	}
	// answers are substitutions over the goal variables; project them
	// onto the answer atom's args.
	primary := answerAtom(goals)
	seenAns := make(map[string]bool)
	for _, s := range answers {
		vec := s.ResolveAll(primary.Args)
		var kb []byte
		for _, a := range vec {
			kb = term.AppendKey(kb, a)
		}
		if seenAns[string(kb)] {
			continue
		}
		seenAns[string(kb)] = true
		res.Answers = append(res.Answers, vec)
	}
	res.Plan.Goal = primary.String()
	res.Plan.Adornment = adorn.GoalAdornment(primary)
	return res, nil
}

// answerAtom is the atom a query's answers are vectors of: its one
// positive relational goal (or its one goal, if none is relational),
// else an atom over the variables of those goals in order of first
// appearance — so a conjunction's answers bind every variable, and
// answers differing in any binding stay distinct. Anonymous variables,
// and any variable local to a negated goal (adorn.NegationReady), are
// not answer columns.
func answerAtom(goals []program.Atom) program.Atom {
	var rel []program.Atom
	for _, g := range goals {
		if !g.IsBuiltin() {
			rel = append(rel, g)
		}
	}
	if len(rel) == 0 {
		rel = goals
	}
	if len(rel) == 1 && !rel[0].Negated {
		return rel[0]
	}
	var vars []term.Term
	seen := map[string]bool{}
	occ := adorn.Occurrences(goals...)
	for _, g := range rel {
		for _, a := range g.Args {
			for _, v := range term.Vars(nil, a) {
				if v.Anonymous() || g.Negated && occ[v.Name] == 1 {
					continue
				}
				if !seen[v.Name] {
					seen[v.Name] = true
					vars = append(vars, v)
				}
			}
		}
	}
	return program.NewAtom("answer", vars...)
}

// finish populates Vars and Bindings from the executed goals. Each
// named variable of the answer atom, nested or not, is read from every
// answer along the argument path of its first occurrence.
func (r *Result) finish(goals []program.Atom) {
	primary := answerAtom(goals)
	r.Vars = []string{}
	var paths [][]int
	seen := map[string]bool{}
	var walk func(t term.Term, path []int)
	walk = func(t term.Term, path []int) {
		switch t := t.(type) {
		case term.Var:
			if !t.Anonymous() && !seen[t.Name] {
				seen[t.Name] = true
				r.Vars = append(r.Vars, t.Name)
				paths = append(paths, append([]int(nil), path...))
			}
		case term.Comp:
			for i, a := range t.Args {
				walk(a, append(path, i))
			}
		}
	}
	for i, a := range primary.Args {
		walk(a, []int{i})
	}
	for _, ans := range r.Answers {
		m := make(map[string]term.Term, len(r.Vars))
		for j, v := range r.Vars {
			t := ans[paths[j][0]]
			for _, k := range paths[j][1:] {
				t = t.(term.Comp).Args[k] // every answer has the goal's shape
			}
			m[v] = t
		}
		r.Bindings = append(r.Bindings, m)
	}
}

// SortAnswers orders answers canonically (stable output for tools).
func SortAnswers(answers [][]term.Term) {
	sort.Slice(answers, func(i, j int) bool {
		a, b := answers[i], answers[j]
		for k := range a {
			if c := term.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
