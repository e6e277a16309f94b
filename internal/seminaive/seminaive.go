// Package seminaive implements bottom-up evaluation of (rectified,
// safe) programs: naive and semi-naive fixpoint iteration, stratified
// by the predicate dependency SCCs, with builtins scheduled by binding
// modes inside each rule body.
//
// The engine never hangs: iteration and tuple budgets convert the
// paper's "infinitely evaluable" into ErrBudget, and a statically
// unschedulable builtin (e.g. cons with only its head argument bound,
// which would enumerate infinitely many lists) is reported as
// ErrUnsafe before evaluation begins.
package seminaive

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"chainsplit/internal/adorn"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// ErrBudget is returned when evaluation exceeds the configured
// iteration or tuple budget — the runtime signature of an infinite (or
// practically unbounded) evaluation. It wraps everr.ErrBudget.
var ErrBudget = fmt.Errorf("seminaive: %w", everr.ErrBudget)

// ErrUnsafe is returned when a rule body cannot be scheduled so that
// every builtin is finitely evaluable — the static signature of an
// infinitely evaluable chain element. It wraps everr.ErrUnsafe.
var ErrUnsafe = fmt.Errorf("seminaive: rule is not safe for bottom-up evaluation: %w", everr.ErrUnsafe)

// Options configures an evaluation.
type Options struct {
	// Ctx, when non-nil, is checked at fixpoint-round boundaries (and
	// periodically inside long joins): cancellation and deadlines stop
	// the evaluation with everr.ErrCanceled / everr.ErrDeadline.
	Ctx context.Context
	// MaxIterations bounds fixpoint rounds per SCC
	// (0 = defaultMaxIterations, 1,000,000).
	MaxIterations int
	// MaxTuples bounds the total number of derived tuples
	// (0 = defaultMaxTuples, 5,000,000).
	MaxTuples int
	// Goal, when set to a predicate key ("pred/arity"), restricts
	// evaluation to the SCCs in the goal's dependency cone. Unrelated
	// recursions in the same program — including divergent ones — are
	// not evaluated. Empty evaluates the whole program.
	Goal string
	// Workers bounds the goroutines evaluating one fixpoint round's
	// work items (0 or 1 = serial); results are bit-identical to serial
	// evaluation. No production path sets it: a query evaluates on one
	// goroutine. It remains only for the benchmark's two-worker
	// evaluation probe and goes when that probe is retired.
	Workers int
	// Tracer, when non-nil, receives structured round/merge events
	// (obsv.PhaseRound / obsv.PhaseMerge), one per fixpoint round per
	// SCC, and turns on the profiles in Stats: per-round delta
	// cardinalities (Deltas, which regenerate the paper's
	// iteration-profile figures) and per-rule, per-body-literal join
	// statistics (Rules, the observed side of EXPLAIN ANALYZE; the
	// counts touch the innermost join loop). A nil tracer costs
	// nothing.
	Tracer *obsv.Tracer
}

// The budgets a zero Options field stands for.
const (
	defaultMaxIterations = 1_000_000
	defaultMaxTuples     = 5_000_000
)

func (o Options) maxIterations() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return defaultMaxIterations
}

func (o Options) maxTuples() int {
	if o.MaxTuples > 0 {
		return o.MaxTuples
	}
	return defaultMaxTuples
}

// IterStats records one fixpoint round of one SCC.
type IterStats struct {
	SCC       string
	Iteration int
	// DeltaSizes maps predicate name to the number of new tuples
	// derived this round.
	DeltaSizes map[string]int
}

// LitProfile is the observed runtime behavior of one body literal: In
// counts the partial substitutions that reached it, Out the matches it
// produced (solutions passed downstream). Out/In is the literal's
// realized join expansion ratio — the run-time counterpart of the
// estimate cost.Model.Expansion feeds into Algorithm 3.1.
type LitProfile struct {
	Lit     string
	In, Out int64
}

// RuleProfile aggregates one rule's runtime behavior across every
// fixpoint round it participated in.
type RuleProfile struct {
	// Rule is the rule as evaluated (for rewritten programs, the magic
	// or answer rule, not the source rule).
	Rule string
	// Fires counts complete body matches (head derivation attempts);
	// Derived counts the subset that produced a new tuple.
	Fires, Derived int64
	// Lits holds the per-literal profile in body order.
	Lits []LitProfile
}

// Stats aggregates evaluation metrics.
type Stats struct {
	Iterations    int           // total fixpoint rounds across SCCs
	DerivedTuples int           // tuples inserted into IDB relations
	Matches       int64         // tuple matches enumerated (join work proxy)
	Deltas        []IterStats   // present with Options.Tracer
	Rules         []RuleProfile // present with Options.Tracer
}

// Compiled is a program prepared for evaluation against any catalog:
// its dependency graph with the SCC order, the relations its rules
// name, and — built the first time a run reaches each SCC — the SCC's
// rules scheduled and compiled into steps. It holds no relation and no
// catalog, so one Compiled serves any number of runs, concurrently,
// over any catalogs; an SCC a run never reaches (one outside its goal's
// cone) is never scheduled, so an unschedulable rule there fails no
// run.
type Compiled struct {
	prog  *program.Program
	graph *program.DepGraph
	// rels lists every relation a rule names (heads and relation
	// literals), each once; a run creates those its catalog lacks.
	rels []relKey
	// sccs holds each SCC's compiled plan by SCC index, nil until a run
	// first reaches it; a failed compile stores nothing.
	sccs []atomic.Pointer[sccPlan]
	// cones memoizes, per goal key ("" for the whole program), the SCC
	// indices a run evaluates in order, once its stratification check
	// has passed.
	mu    sync.Mutex
	cones map[string][]int
}

// relKey names a relation by predicate and arity.
type relKey struct {
	pred  string
	arity int
}

// Compile prepares p's rules for evaluation; p's facts are not part of
// the result (Eval takes the facts to load).
func Compile(p *program.Program) *Compiled {
	c := &Compiled{prog: p, graph: program.NewDepGraph(p), cones: make(map[string][]int)}
	c.sccs = make([]atomic.Pointer[sccPlan], len(c.graph.SCCs))
	seen := make(map[relKey]bool)
	note := func(a program.Atom) {
		if k := (relKey{a.Pred, a.Arity()}); !seen[k] {
			seen[k] = true
			c.rels = append(c.rels, k)
		}
	}
	for _, r := range p.Rules {
		note(r.Head)
		for _, b := range r.Body {
			if !b.IsBuiltin() {
				note(b)
			}
		}
	}
	return c
}

// cone returns the SCC indices a run toward goal ("" for the whole
// program) evaluates, in dependency order, after checking that the
// goal's cone is stratified.
func (c *Compiled) cone(goal string) ([]int, error) {
	c.mu.Lock()
	ids, ok := c.cones[goal]
	c.mu.Unlock()
	if ok {
		return ids, nil
	}
	var goals []string
	var in map[string]bool
	if goal != "" {
		goals = append(goals, goal)
		in = c.graph.Reachable(goal)
	}
	if _, err := c.graph.Stratify(goals...); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsafe, err)
	}
	ids = []int{}
	for id, scc := range c.graph.SCCs {
		if in == nil || sccInCone(scc, in) {
			ids = append(ids, id)
		}
	}
	c.mu.Lock()
	c.cones[goal] = ids
	c.mu.Unlock()
	return ids, nil
}

// sccInCone reports whether any member of the SCC is in the goal's
// dependency cone (SCC membership makes any-member equivalent to
// all-members).
func sccInCone(scc []string, cone map[string]bool) bool {
	for _, k := range scc {
		if cone[k] {
			return true
		}
	}
	return false
}

// sccPlan is one SCC's rules, scheduled and compiled: what a run
// evaluates once it has bound the plan's relations in its catalog.
type sccPlan struct {
	scc   []string
	preds []sccPred // sorted by key: head positions
	rules []*compiledRule
	// exitIdx and recIdx split the rules into exit rules (no same-SCC
	// body literal) and recursive ones.
	exitIdx, recIdx []int
	// reads lists the relations the rules' literals read, by read
	// position.
	reads []relKey
}

// sccPred is one predicate of an SCC, its key parsed once.
type sccPred struct {
	key   string
	pred  string
	arity int
}

// scc returns SCC id's plan, scheduling and compiling its rules on
// first use.
func (c *Compiled) scc(id int) (*sccPlan, error) {
	if sp := c.sccs[id].Load(); sp != nil {
		return sp, nil
	}
	scc := c.graph.SCCs[id]
	sp := &sccPlan{scc: scc, preds: make([]sccPred, len(scc))}
	inSCC := make(map[string]bool, len(scc))
	for _, k := range scc {
		inSCC[k] = true
	}
	var rules []program.Rule
	for _, r := range c.prog.Rules {
		if inSCC[r.Head.Key()] {
			rules = append(rules, r)
		}
	}
	for i, k := range scc {
		pred, arity, err := program.SplitKey(k)
		if err != nil {
			return nil, err
		}
		sp.preds[i] = sccPred{key: k, pred: pred, arity: arity}
	}
	sort.Slice(sp.preds, func(i, j int) bool { return sp.preds[i].key < sp.preds[j].key })
	sccPos := make(map[string]int, len(sp.preds))
	for i, p := range sp.preds {
		sccPos[p.key] = i
	}
	readPos := make(map[relKey]int)
	readOf := func(a program.Atom) int {
		k := relKey{a.Pred, a.Arity()}
		pos, ok := readPos[k]
		if !ok {
			pos = len(sp.reads)
			readPos[k] = pos
			sp.reads = append(sp.reads, k)
		}
		return pos
	}
	for i, r := range rules {
		order, err := scheduleBody(r)
		if err != nil {
			return nil, err
		}
		cr := compileRule(r, order, sccPos, readOf)
		sp.rules = append(sp.rules, cr)
		if slices.ContainsFunc(cr.deltaPreds, func(p int) bool { return p >= 0 }) {
			sp.recIdx = append(sp.recIdx, i)
		} else {
			sp.exitIdx = append(sp.exitIdx, i)
		}
	}
	c.sccs[id].CompareAndSwap(nil, sp)
	return c.sccs[id].Load(), nil
}

// Eval loads facts into cat and evaluates the program to fixpoint
// against it (cat is the run's working storage: derived relations are
// created in it, so pass a snapshot if the caller needs the original
// untouched), SCC by SCC in dependency order, returning the run's
// statistics.
func (c *Compiled) Eval(facts []program.Atom, cat *relation.Catalog, opts Options) (*Stats, error) {
	e := &engine{c: c, cat: cat, opts: opts}
	if opts.Tracer.Enabled() {
		e.lits = make(map[string]*litCounters)
	}
	for _, f := range facts {
		tup := relation.Tuple(f.Args)
		// Skip facts already present: on a copy-on-write snapshot of a
		// live database the EDB is pre-loaded, and going through Ensure
		// would put a private log over every shared fact relation.
		if rel := cat.Get(f.Pred); rel != nil && rel.Arity() == f.Arity() && rel.Contains(tup) {
			continue
		}
		cat.Ensure(f.Pred, f.Arity()).Insert(tup)
	}
	return &e.stats, e.run()
}

// engine is one evaluation of a Compiled program against one working
// catalog.
type engine struct {
	c     *Compiled
	cat   *relation.Catalog
	opts  Options
	stats Stats
	// lits aggregates per-rule literal statistics (with
	// Options.Tracer), keyed by the rule's rendered form.
	lits map[string]*litCounters
}

// litCounters accumulates one rule's runtime join statistics. The
// serial path accumulates into the engine-wide aggregate directly;
// parallel rounds give each work item a private instance and merge in
// item order, so the counts are identical to serial evaluation.
type litCounters struct {
	rule           program.Rule
	fires, derived int64
	in, out        []int64
}

func newLitCounters(r program.Rule) *litCounters {
	return &litCounters{rule: r, in: make([]int64, len(r.Body)), out: make([]int64, len(r.Body))}
}

// add merges o (nil: nothing) into lc field-wise.
func (lc *litCounters) add(o *litCounters) {
	if o == nil {
		return
	}
	lc.fires += o.fires
	lc.derived += o.derived
	for i := range o.in {
		lc.in[i] += o.in[i]
		lc.out[i] += o.out[i]
	}
}

// litsFor returns the engine-wide aggregate counter for rule i of the
// SCC run, creating it on the rule's first work item, or nil when
// literal statistics are disabled.
func (e *engine) litsFor(run *sccRun, i int) *litCounters {
	if run.aggs == nil {
		return nil
	}
	if run.aggs[i] == nil {
		r := run.rules[i].rule
		key := r.String()
		if run.aggs[i] = e.lits[key]; run.aggs[i] == nil {
			run.aggs[i] = newLitCounters(r)
			e.lits[key] = run.aggs[i]
		}
	}
	return run.aggs[i]
}

// finishLits materializes Stats.Rules from the aggregates, sorted by
// rule text for deterministic output.
func (e *engine) finishLits() {
	if len(e.lits) == 0 {
		return
	}
	keys := make([]string, 0, len(e.lits))
	for k := range e.lits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.stats.Rules = e.stats.Rules[:0]
	for _, k := range keys {
		lc := e.lits[k]
		rp := RuleProfile{Rule: k, Fires: lc.fires, Derived: lc.derived}
		for i, b := range lc.rule.Body {
			rp.Lits = append(rp.Lits, LitProfile{Lit: b.String(), In: lc.in[i], Out: lc.out[i]})
		}
		e.stats.Rules = append(e.stats.Rules, rp)
	}
}

// run evaluates the goal's cone (the whole program without a goal) to
// fixpoint, SCC by SCC in dependency order.
func (e *engine) run() error {
	ids, err := e.c.cone(e.opts.Goal)
	if err != nil {
		return err
	}
	// Pre-create IDB relations (arity from rule heads). Relations that
	// already exist are left alone — Ensure on a snapshot-shared
	// relation would put a private log over it, and mere existence
	// needs no write.
	for _, k := range e.c.rels {
		if rel := e.cat.Get(k.pred); rel == nil || rel.Arity() != k.arity {
			e.cat.Ensure(k.pred, k.arity)
		}
	}
	if e.opts.Tracer.Enabled() {
		defer e.finishLits()
	}
	for _, id := range ids {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return err
		}
		sp, err := e.c.scc(id)
		if err != nil {
			return err
		}
		if err := e.runSCC(sp); err != nil {
			return err
		}
	}
	return nil
}

// sccRun is one run's state of one SCC: the plan's relations bound in
// the run's catalog, and the delta windows. A round appends to the head
// relations; predicate p's delta is the window [lo[p], hi[p]) of its
// own relation.
type sccRun struct {
	*sccPlan
	headRels []*relation.Relation
	rels     []*relation.Relation
	lo, hi   []int
	// aggs holds each rule's literal-statistics aggregate (nil without
	// Options.Tracer; an entry is nil until the rule's first work item).
	aggs []*litCounters
	// execs holds each rule's serial executor, made on its first work
	// item.
	execs []*executor
}

func (e *engine) runSCC(sp *sccPlan) error {
	if len(sp.rules) == 0 {
		return nil
	}
	// Resolve every head relation once, before any round runs, and then
	// every relation the rules read. This is where copy-on-write happens
	// for snapshot-shared relations, so that workers never touch the
	// catalog concurrently mid-round and the relation each compiled
	// step reads stays stable.
	run := &sccRun{
		sccPlan:  sp,
		headRels: make([]*relation.Relation, len(sp.preds)),
		rels:     make([]*relation.Relation, len(sp.reads)),
		lo:       make([]int, len(sp.preds)),
		hi:       make([]int, len(sp.preds)),
	}
	for i, p := range sp.preds {
		run.headRels[i] = e.cat.Ensure(p.pred, p.arity)
		run.hi[i] = run.headRels[i].Len()
	}
	for i, k := range sp.reads {
		if rel := e.cat.Get(k.pred); rel != nil && rel.Arity() == k.arity {
			run.rels[i] = rel
		}
	}
	if e.opts.Tracer.Enabled() {
		run.aggs = make([]*litCounters, len(sp.rules))
	}
	scc := sp.scc

	// Round 0: exit rules against full relations.
	items := make([]workItem, 0, len(sp.exitIdx))
	for _, i := range sp.exitIdx {
		items = append(items, workItem{rule: i, deltaLit: -1})
	}
	e.opts.Tracer.Point(obsv.PhaseRound, scc[0], 0, int64(len(items)))
	if err := e.runItems(run, items); err != nil {
		return err
	}
	// merge closes a round: what it appended past hi is the next delta.
	merge := func(iter int) (int, error) {
		total := 0
		var ds map[string]int
		if e.opts.Tracer.Enabled() {
			ds = make(map[string]int)
		}
		for i, p := range sp.preds {
			n := run.headRels[i].Len() - run.hi[i]
			run.lo[i], run.hi[i] = run.hi[i], run.headRels[i].Len()
			total += n
			e.stats.DerivedTuples += n
			if ds != nil {
				ds[p.pred] = n
			}
		}
		if ds != nil {
			e.stats.Deltas = append(e.stats.Deltas, IterStats{
				SCC: scc[0], Iteration: iter, DeltaSizes: ds,
			})
		}
		e.opts.Tracer.Point(obsv.PhaseMerge, scc[0], int64(iter), int64(total))
		if e.stats.DerivedTuples > e.opts.maxTuples() {
			return 0, fmt.Errorf("%w: more than %d tuples derived", ErrBudget, e.opts.maxTuples())
		}
		return total, nil
	}
	if _, err := merge(0); err != nil {
		return err
	}
	if len(sp.recIdx) == 0 {
		return nil
	}
	// The initial delta is everything known for the SCC predicates so
	// far: pre-existing facts plus the exit-round derivations.
	clear(run.lo)

	// Semi-naive rounds.
	for iter := 1; ; iter++ {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return err
		}
		if err := faultinject.Fire(faultinject.SiteSeminaiveIterate); err != nil {
			return err
		}
		if iter > e.opts.maxIterations() {
			return fmt.Errorf("%w: more than %d iterations in SCC %v", ErrBudget, e.opts.maxIterations(), scc)
		}
		e.stats.Iterations++
		// One work item per (recursive rule × same-SCC body occurrence),
		// with that occurrence reading the delta window.
		items = items[:0]
		for _, i := range sp.recIdx {
			for li, p := range sp.rules[i].deltaPreds {
				if p >= 0 && run.lo[p] < run.hi[p] {
					items = append(items, workItem{rule: i, deltaLit: li})
				}
			}
		}
		e.opts.Tracer.Point(obsv.PhaseRound, scc[0], int64(iter), int64(len(items)))
		if err := e.runItems(run, items); err != nil {
			return err
		}
		n, err := merge(iter)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// workItem is one unit of round work: evaluate rule `rule` with body
// occurrence `deltaLit` reading the delta window (-1 in the exit round,
// where every literal reads the full relation).
type workItem struct {
	rule     int
	deltaLit int
}

// newExecutor prepares the executor of one work item, reading the
// round's windows; the caller sets where it stores and counts.
func (e *engine) newExecutor(run *sccRun, it workItem) *executor {
	c := run.rules[it.rule]
	return &executor{
		c:        c,
		ctx:      e.opts.Ctx,
		slots:    make([]term.Term, len(c.vars)),
		rels:     run.rels,
		lo:       run.lo,
		hi:       run.hi,
		deltaLit: it.deltaLit,
		key:      make(relation.Tuple, c.keyWidth),
		head:     make(relation.Tuple, len(c.head)),
		indexes:  make([]*relation.Index, len(c.steps)),
	}
}

// runItems evaluates one round's work items, serially or fanned across a
// bounded worker pool, appending their derivations to headRels.
//
// The parallel path is observably identical to the serial one:
//
//   - Reads are race-free. During a parallel round nothing writes the
//     relations or the catalog — derivations go to staging relations,
//     and head relations were pre-resolved — so workers share them
//     read-only (lazy index builds synchronize internally).
//   - Each item stages into a private relation, and item k's head
//     predicate and enumeration order don't depend on its siblings: the
//     serial path appends to the head relations as it goes, but reads
//     them only below the round's bounds hi, so it never sees what
//     earlier items derived. Staging contents therefore match what item
//     k contributed serially, and merging the stagings into the head
//     relations in item order reproduces the serial insertion order
//     exactly (Insert dedups across items just as it did serially).
//   - Errors are deterministic: every item runs to completion (or to
//     its own failure — siblings are not cancelled), and the
//     lowest-index failure is returned, which is the error serial
//     evaluation would have hit first. Matches are accumulated in item
//     order up to that failure, so Stats agree too.
//
// Worker panics are contained as *everr.EvalError wrapping
// everr.ErrPanic rather than crashing the process from a goroutine the
// public API's recover can't see.
func (e *engine) runItems(run *sccRun, items []workItem) error {
	workers := e.opts.Workers
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		// Serially, one executor per rule serves all its work items: the
		// relations an SCC run reads, and so their indexes, stay put.
		if run.execs == nil {
			run.execs = make([]*executor, len(run.rules))
		}
		for _, it := range items {
			x := run.execs[it.rule]
			if x == nil {
				x = e.newExecutor(run, it)
				x.dst = run.headRels[x.c.headPred]
				x.matches = &e.stats.Matches
				x.lc = e.litsFor(run, it.rule)
				run.execs[it.rule] = x
			}
			x.deltaLit = it.deltaLit
			if err := x.run(0); err != nil {
				return err
			}
		}
		return nil
	}

	staging := make([]*relation.Relation, len(items))
	matches := make([]int64, len(items))
	lits := make([]*litCounters, len(items))
	errs := make([]error, len(items))
	idxCh := make(chan int, len(items))
	for k := range items {
		idxCh <- k
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idxCh {
				e.runItem(run, items, k, staging, matches, lits, errs)
			}
		}()
	}
	wg.Wait()

	// Deterministic aggregation: walk items in order, first failure
	// wins. Only work serial evaluation would also have performed is
	// accounted (later items did run, but their matches and stagings
	// are discarded), so Stats and contents agree with Workers=1.
	for k, it := range items {
		c := run.rules[it.rule]
		e.stats.Matches += matches[k]
		agg := e.litsFor(run, it.rule)
		if agg != nil {
			agg.add(lits[k])
		}
		if errs[k] != nil {
			return errs[k]
		}
		n := run.headRels[c.headPred].InsertAll(staging[k])
		if agg != nil {
			agg.derived += int64(n)
		}
	}
	return nil
}

// runItem evaluates one work item into its private staging relation,
// containing panics from rule bodies (user-registered builtins may
// misbehave) so they surface as typed errors instead of killing the
// process.
func (e *engine) runItem(run *sccRun, items []workItem, k int, staging []*relation.Relation, matches []int64, lits []*litCounters, errs []error) {
	c := run.rules[items[k].rule]
	defer func() {
		if v := recover(); v != nil {
			errs[k] = &everr.EvalError{
				Strategy:  "seminaive",
				Pred:      c.headKey,
				Iteration: e.stats.Iterations,
				PanicVal:  v,
				Stack:     string(debug.Stack()),
				Err:       everr.ErrPanic,
			}
		}
	}()
	x := e.newExecutor(run, items[k])
	x.full = run.headRels[c.headPred]
	x.dst = relation.New(x.full.Name(), x.full.Arity())
	staging[k] = x.dst
	x.matches = &matches[k]
	if e.opts.Tracer.Enabled() {
		x.lc = newLitCounters(c.rule)
		lits[k] = x.lc
	}
	// Derived counts are attributed at merge time (InsertAll into the
	// head relation in item order), not here: a private staging relation
	// can't see what earlier items already staged, and counting its
	// inserts would double-count tuples two items derive in the same
	// round.
	errs[k] = x.run(0)
}

// scheduleBody orders the body leftmost-ready (adorn.Ready): every
// builtin is invoked only when its finite mode is satisfied and every
// negation once its shared variables are bound, assuming relation
// literals bind all their variables. Returns ErrUnsafe if impossible.
func scheduleBody(r program.Rule) ([]int, error) {
	n := len(r.Body)
	bound := make(map[string]bool)
	var occ map[string]int // built at the first negated literal
	done := make([]bool, n)
	var order []int
	for len(order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			lit := r.Body[i]
			if lit.Negated && occ == nil {
				occ = adorn.Occurrences(append([]program.Atom{r.Head}, r.Body...)...)
			}
			if adorn.Ready(lit, bound, occ, nil) {
				pick = i
				break
			}
		}
		if pick < 0 {
			var stuck []string
			for i := 0; i < n; i++ {
				if !done[i] {
					stuck = append(stuck, r.Body[i].String())
				}
			}
			return nil, fmt.Errorf("%w: %s (unschedulable: %v)", ErrUnsafe, r, stuck)
		}
		done[pick] = true
		order = append(order, pick)
		for v := range r.Body[pick].Vars() {
			bound[v] = true
		}
	}
	return order, nil
}

// Eval compiles p and evaluates it, facts included, against cat (which
// is mutated), returning the run's statistics.
func Eval(p *program.Program, cat *relation.Catalog, opts Options) (*Stats, error) {
	return Compile(p).Eval(p.Facts, cat, opts)
}
