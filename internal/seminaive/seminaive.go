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
	"sort"
	"sync"

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

// Engine evaluates one program against one working catalog.
type Engine struct {
	prog  *program.Program
	graph *program.DepGraph
	cat   *relation.Catalog
	opts  Options
	stats Stats
	idb   map[string]bool
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

// litsFor returns the engine-wide aggregate counter for c's rule,
// creating it on the rule's first work item, or nil when literal
// statistics are disabled.
func (e *Engine) litsFor(c *compiledRule) *litCounters {
	if !e.opts.Tracer.Enabled() {
		return nil
	}
	if c.agg == nil {
		key := c.rule.String()
		if c.agg = e.lits[key]; c.agg == nil {
			c.agg = newLitCounters(c.rule)
			e.lits[key] = c.agg
		}
	}
	return c.agg
}

// finishLits materializes Stats.Rules from the aggregates, sorted by
// rule text for deterministic output.
func (e *Engine) finishLits() {
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

// New prepares an engine. The catalog is used as working storage: EDB
// facts from the program are loaded into it, and derived relations are
// created in it. Pass a clone if the caller needs the original
// untouched.
func New(p *program.Program, cat *relation.Catalog, opts Options) *Engine {
	e := &Engine{prog: p, graph: program.NewDepGraph(p), cat: cat, opts: opts, idb: p.IDB()}
	if opts.Tracer.Enabled() {
		e.lits = make(map[string]*litCounters)
	}
	for _, f := range p.Facts {
		tup := relation.Tuple(f.Args)
		// Skip facts already present: on a copy-on-write snapshot of a
		// live database the EDB is pre-loaded, and going through Ensure
		// would pointlessly clone every shared fact relation.
		if rel := cat.Get(f.Pred); rel != nil && rel.Arity() == f.Arity() && rel.Contains(tup) {
			continue
		}
		cat.Ensure(f.Pred, f.Arity()).Insert(tup)
	}
	return e
}

// Stats returns the accumulated statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// Run evaluates the whole program to fixpoint, SCC by SCC in
// dependency order.
func (e *Engine) Run() error {
	var goals []string
	if e.opts.Goal != "" {
		goals = append(goals, e.opts.Goal)
	}
	if _, err := e.graph.Stratify(goals...); err != nil {
		return fmt.Errorf("%w: %v", ErrUnsafe, err)
	}
	// Pre-create IDB relations (arity from rule heads). Relations that
	// already exist are left alone — Ensure on a snapshot-shared
	// relation would clone it, and mere existence needs no write.
	ensure := func(pred string, arity int) {
		if rel := e.cat.Get(pred); rel != nil && rel.Arity() == arity {
			return
		}
		e.cat.Ensure(pred, arity)
	}
	for _, r := range e.prog.Rules {
		ensure(r.Head.Pred, r.Head.Arity())
		for _, b := range r.Body {
			if !b.IsBuiltin() {
				ensure(b.Pred, b.Arity())
			}
		}
	}
	var cone map[string]bool
	if e.opts.Goal != "" {
		cone = e.graph.Reachable(e.opts.Goal)
	}
	if e.opts.Tracer.Enabled() {
		defer e.finishLits()
	}
	for _, scc := range e.graph.SCCs {
		if cone != nil && !sccInCone(scc, cone) {
			continue
		}
		if err := everr.Check(e.opts.Ctx); err != nil {
			return err
		}
		if err := e.runSCC(scc); err != nil {
			return err
		}
	}
	return nil
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

// sccRules returns the rules whose head is in the SCC.
func (e *Engine) sccRules(scc []string) []program.Rule {
	inSCC := make(map[string]bool, len(scc))
	for _, k := range scc {
		inSCC[k] = true
	}
	var out []program.Rule
	for _, r := range e.prog.Rules {
		if inSCC[r.Head.Key()] {
			out = append(out, r)
		}
	}
	return out
}

// sccPred is one predicate of the SCC being evaluated, its key parsed
// once.
type sccPred struct {
	key   string
	pred  string
	arity int
}

func (e *Engine) runSCC(scc []string) error {
	rules := e.sccRules(scc)
	if len(rules) == 0 {
		return nil
	}
	preds := make([]sccPred, len(scc))
	for i, k := range scc {
		pred, arity, err := program.SplitKey(k)
		if err != nil {
			return err
		}
		preds[i] = sccPred{key: k, pred: pred, arity: arity}
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].key < preds[j].key })

	// Resolve every head relation once, before any round runs. This is
	// where copy-on-write happens for snapshot-shared relations, so
	// that workers never touch the catalog concurrently mid-round and
	// the relation each compiled step reads stays stable. A round
	// appends to these relations; predicate p's delta is the window
	// [lo[p], hi[p]) of its own relation.
	sccPos := make(map[string]int, len(preds))
	headRels := make([]*relation.Relation, len(preds))
	lo, hi := make([]int, len(preds)), make([]int, len(preds))
	for i, p := range preds {
		sccPos[p.key] = i
		headRels[i] = e.cat.Ensure(p.pred, p.arity)
		hi[i] = headRels[i].Len()
	}

	// Schedule (builtin-safe ordering) and compile each rule once, and
	// split the rules into exit rules (no same-SCC body literal) and
	// recursive ones.
	compiled := make([]*compiledRule, len(rules))
	var exitIdx, recIdx []int
	for i, r := range rules {
		order, err := scheduleBody(r)
		if err != nil {
			return err
		}
		c := compileRule(r, order, e.cat, sccPos)
		compiled[i] = c
		rec := false
		for _, p := range c.deltaPreds {
			rec = rec || p >= 0
		}
		if rec {
			recIdx = append(recIdx, i)
		} else {
			exitIdx = append(exitIdx, i)
		}
	}

	// Round 0: exit rules against full relations.
	items := make([]workItem, 0, len(exitIdx))
	for _, i := range exitIdx {
		items = append(items, workItem{rule: i, deltaLit: -1})
	}
	e.opts.Tracer.Point(obsv.PhaseRound, scc[0], 0, int64(len(items)))
	if err := e.runItems(compiled, items, headRels, lo, hi); err != nil {
		return err
	}
	// merge closes a round: what it appended past hi is the next delta.
	merge := func(iter int) (int, error) {
		total := 0
		var ds map[string]int
		if e.opts.Tracer.Enabled() {
			ds = make(map[string]int)
		}
		for i, p := range preds {
			n := headRels[i].Len() - hi[i]
			lo[i], hi[i] = hi[i], headRels[i].Len()
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
	if len(recIdx) == 0 {
		return nil
	}
	// The initial delta is everything known for the SCC predicates so
	// far: pre-existing facts plus the exit-round derivations.
	clear(lo)

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
		for _, i := range recIdx {
			for li, p := range compiled[i].deltaPreds {
				if p >= 0 && lo[p] < hi[p] {
					items = append(items, workItem{rule: i, deltaLit: li})
				}
			}
		}
		e.opts.Tracer.Point(obsv.PhaseRound, scc[0], int64(iter), int64(len(items)))
		if err := e.runItems(compiled, items, headRels, lo, hi); err != nil {
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
// round's windows lo and hi; the caller sets where it stores and counts.
func (e *Engine) newExecutor(c *compiledRule, it workItem, lo, hi []int) *executor {
	return &executor{
		c:        c,
		ctx:      e.opts.Ctx,
		slots:    make([]term.Term, len(c.vars)),
		lo:       lo,
		hi:       hi,
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
func (e *Engine) runItems(compiled []*compiledRule, items []workItem, headRels []*relation.Relation, lo, hi []int) error {
	workers := e.opts.Workers
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for _, it := range items {
			c := compiled[it.rule]
			x := e.newExecutor(c, it, lo, hi)
			x.dst = headRels[c.headPred]
			x.matches = &e.stats.Matches
			x.lc = e.litsFor(c)
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
				e.runItem(compiled, items, headRels, lo, hi, k, staging, matches, lits, errs)
			}
		}()
	}
	wg.Wait()

	// Deterministic aggregation: walk items in order, first failure
	// wins. Only work serial evaluation would also have performed is
	// accounted (later items did run, but their matches and stagings
	// are discarded), so Stats and contents agree with Workers=1.
	for k, it := range items {
		c := compiled[it.rule]
		e.stats.Matches += matches[k]
		agg := e.litsFor(c)
		if agg != nil {
			agg.add(lits[k])
		}
		if errs[k] != nil {
			return errs[k]
		}
		n := headRels[c.headPred].InsertAll(staging[k])
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
func (e *Engine) runItem(compiled []*compiledRule, items []workItem, headRels []*relation.Relation, lo, hi []int, k int, staging []*relation.Relation, matches []int64, lits []*litCounters, errs []error) {
	c := compiled[items[k].rule]
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
	x := e.newExecutor(c, items[k], lo, hi)
	x.full = headRels[c.headPred]
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

// Eval is the convenience entry point: evaluate prog against cat (which
// is mutated) and return stats.
func Eval(p *program.Program, cat *relation.Catalog, opts Options) (*Stats, error) {
	e := New(p, cat, opts)
	if err := e.Run(); err != nil {
		return e.Stats(), err
	}
	return e.Stats(), nil
}
