// Package counting implements the paper's Algorithm 3.2, buffered
// chain-split evaluation, as a set-oriented evaluator over a compiled
// linear recursion.
//
// The evaluation proceeds in two phases over a *context graph*:
//
//   - The down phase starts from the query's bound arguments and
//     repeatedly evaluates the immediately evaluable portion of each
//     recursive rule, producing the next level's bound arguments. For
//     every derivation an *edge* is recorded holding the frame the
//     portion left — the rule's variable bindings, which are exactly
//     the paper's buffers: "the values of variable X_i's are buffered
//     in the processing of the being-evaluated portion of a chain
//     generating path and reused in the processing of its buffered
//     portion" (Remark 3.1).
//   - When an exit rule fires at some context, the up phase replays the
//     buffered edges in reverse, evaluating the delayed portion on the
//     edge's frame with the recursive call's answer unified in,
//     propagating answers toward the root context.
//
// Every portion runs on the inner top-down engine's compiled frames
// (topdown.Engine.Solve), so a portion's literals are solved as any
// top-down body's are, nested IDB calls (isort's insert) included.
//
// Contexts are memoized by (adornment, bound-argument values), so on
// function-free single chains the context graph degenerates to the
// counting method's magic-set-with-levels — which is the paper's own
// observation that buffered evaluation "is similar to counting".
// Cyclic context graphs (cyclic data) are handled by fixpoint
// propagation rather than level arithmetic, in the manner of cyclic
// counting extensions.
package counting

import (
	"context"
	"fmt"
	"strings"

	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/topdown"
)

// ErrBudget is returned when the down phase exceeds its budget — the
// runtime signature of a non-terminating chain (e.g. travel on a
// cyclic flight graph without termination constraints). It wraps
// everr.ErrBudget.
var ErrBudget = fmt.Errorf("counting: %w", everr.ErrBudget)

// Options configures the evaluator.
type Options struct {
	// Ctx, when non-nil, is checked at level boundaries and
	// periodically while draining the up-phase worklist: cancellation
	// and deadlines stop the evaluation with everr.ErrCanceled /
	// everr.ErrDeadline.
	Ctx context.Context
	// MaxLevels bounds the down-phase BFS depth
	// (0 = defaultMaxLevels, 100,000).
	MaxLevels int
	// MaxContexts bounds the number of distinct contexts
	// (0 = defaultMaxContexts, 2,000,000).
	MaxContexts int
	// MaxEdges bounds the number of buffered edges
	// (0 = defaultMaxEdges, 5,000,000).
	MaxEdges int
	// MaxAnswers bounds the total number of answers across contexts
	// (0 = defaultMaxAnswers, 1,000,000). A cyclic chain with ever-growing
	// answers (e.g. travel routes on a cyclic flight graph) trips this
	// budget.
	MaxAnswers int
	// Tracer, when non-nil, receives structured events — one
	// obsv.PhaseLevel point per context opened and one obsv.PhaseAnswer
	// point per answer derived — and turns on the per-level profile
	// (contexts opened and answers propagated per level, for the figure
	// experiments) and the Events strings, the worked trace. A nil
	// tracer costs nothing.
	Tracer *obsv.Tracer
	// Acc installs a monotone accumulator per context: per recursive
	// rule, the (source-program) variable whose per-level value is
	// added. Down-phase expansion stops at any context whose value
	// the spec's bound rejects. The constraint-pushing partial
	// evaluator (Algorithm 3.3) produces it.
	Acc *AccumSpec
	// Analysis is the finiteness analysis of the program, shared with
	// the planner; nil builds one.
	Analysis *adorn.Analysis
}

// AccumSpec declares a monotone down-phase accumulator, the product of
// the partial evaluation of a delayed plus-chain (Algorithm 3.3): the
// delayed F = F1 + F2 recurrence telescopes into a running sum of the
// eval-portion increments F1, which is maintained during the down phase
// and pruned against the pushed termination constraint.
type AccumSpec struct {
	// IncrementVar maps a recursive-rule index to the variable (as
	// named in the source rule) holding that rule's per-level
	// increment. Rules without an entry contribute zero.
	IncrementVar map[int]string
	// Bound is the pushed constant: contexts with accumulator above it
	// (or equal, when Strict) are pruned.
	Bound int64
	// Strict marks a "<" constraint (prune when acc >= Bound).
	Strict bool
}

// RejectsAcc reports whether an accumulated value violates the spec's
// pushed bound.
func (a *AccumSpec) RejectsAcc(acc int64) bool {
	if a.Strict {
		return acc >= a.Bound
	}
	return acc > a.Bound
}

// The budgets a zero Options field stands for.
const (
	defaultMaxLevels   = 100_000
	defaultMaxContexts = 2_000_000
	defaultMaxEdges    = 5_000_000
	defaultMaxAnswers  = 1_000_000
)

func (o Options) maxLevels() int {
	if o.MaxLevels > 0 {
		return o.MaxLevels
	}
	return defaultMaxLevels
}

func (o Options) maxContexts() int {
	if o.MaxContexts > 0 {
		return o.MaxContexts
	}
	return defaultMaxContexts
}

func (o Options) maxEdges() int {
	if o.MaxEdges > 0 {
		return o.MaxEdges
	}
	return defaultMaxEdges
}

func (o Options) maxAnswers() int {
	if o.MaxAnswers > 0 {
		return o.MaxAnswers
	}
	return defaultMaxAnswers
}

// LevelStats is one row of the trace profile.
type LevelStats struct {
	Level    int
	Contexts int // contexts first reached at this level
	Edges    int // buffered edges created from this level
	Answers  int // answers propagated to contexts of this level (up phase)
}

// Stats reports evaluation effort.
type Stats struct {
	Levels    int
	Contexts  int
	Edges     int // buffered derivations (the buffer population)
	Answers   int // total answers across contexts
	Pruned    int // contexts cut by the Acc bound
	UpJoins   int // answers replayed through buffered edges
	ExitFires int
	Profile   []LevelStats
	// Events is the chronological evaluation log (with a Tracer): one
	// line per context opened ("down …") and per answer derived
	// ("answer …") — the observable form of the paper's worked traces.
	Events []string
}

type edge struct {
	parent *ctx
	rs     *ruleSplit
	// frame is the frame the evaluated portion left — the buffered X_i
	// values — on which the delayed portion runs.
	frame []term.Term
}

type ctx struct {
	key     string // predicate key (pred/arity) — SCCs span predicates
	ad      string
	input   []term.Term // values of the 'b' positions of ad
	level   int
	acc     int64
	parents []edge // edges from this context (child) to its parents
	pruned  bool
	topdown.Answers
}

// ruleSplit caches the split of one rule under one adornment: of a
// recursive rule, or of an exit rule, whose evaluated portion is its
// whole body.
type ruleSplit struct {
	split chain.Split
	rule  *topdown.Rule
	// in holds the head's arguments at the adornment's bound positions,
	// rec the recursive literal's and recIn those at RecAd's bound
	// positions, as frame terms of rule; recKey is the recursive
	// literal's predicate.
	in, rec, recIn []term.Term
	recKey         string
	// inc is the frame variable of the accumulator increment (from
	// Options.Acc), or nil when this rule contributes no increment.
	inc term.Term
}

// Evaluator runs buffered chain-split evaluation for one compiled
// recursion (or a whole mutually recursive SCC of them) against one
// catalog.
type Evaluator struct {
	goalKey string
	comps   map[string]*chain.Compiled // SCC member key → chain form
	an      *adorn.Analysis
	cat     *relation.Catalog
	inner   *topdown.Engine
	opts    Options

	// recs and exits hold each SCC member's recursive and exit rules
	// compiled on inner; exitRules the exit rules, renamed apart, as a
	// refusal names them.
	recs, exits map[string][]*topdown.Rule
	exitRules   map[string][]program.Rule
	splits      map[string][]ruleSplit // "pred^ad" → per-rec-rule splits
	exitSplits  map[string][]ruleSplit // "pred^ad" → per-exit-rule schedule

	ctxs    map[string]*ctx
	pending []workItem
	stats   Stats
	key     []byte // scratch for answer keys
}

// workItem is one unit of up-phase propagation: replay answer ans of a
// child context through buffered edge e.
type workItem struct {
	e   edge
	ans []term.Term
}

// New prepares an evaluator. prog must be rectified; comp must be the
// chain form of the queried predicate; cat holds the EDB (program facts
// are loaded into it). When the queried predicate is mutually
// recursive, the chain forms of the other SCC members are compiled too
// and the context graph spans the whole SCC.
func New(prog *program.Program, cat *relation.Catalog, comp *chain.Compiled, opts Options) *Evaluator {
	inner := topdown.New(prog, cat, topdown.Options{Ctx: opts.Ctx, Analysis: opts.Analysis})
	ev := &Evaluator{
		goalKey:    comp.Key(),
		comps:      map[string]*chain.Compiled{comp.Key(): comp},
		an:         inner.Analysis(),
		cat:        cat,
		inner:      inner,
		opts:       opts,
		recs:       make(map[string][]*topdown.Rule),
		exits:      make(map[string][]*topdown.Rule),
		exitRules:  make(map[string][]program.Rule),
		splits:     make(map[string][]ruleSplit),
		exitSplits: make(map[string][]ruleSplit),
		ctxs:       make(map[string]*ctx),
	}
	// Pull in the rest of the goal's SCC (mutual recursion).
	g := ev.an.Graph()
	if id := g.SCCOf(comp.Key()); id >= 0 {
		for _, member := range g.SCCs[id] {
			if _, ok := ev.comps[member]; ok {
				continue
			}
			if mc, err := chain.Compile(prog, g, member); err == nil {
				ev.comps[member] = mc
			}
		}
	}
	rn := term.NewRenamer("_B")
	for key, c := range ev.comps {
		for _, rr := range c.RecRules {
			ev.recs[key] = append(ev.recs[key], inner.Compile(rr.Rule))
		}
		for _, er := range c.ExitRules {
			er = er.Rename(rn)
			ev.exitRules[key] = append(ev.exitRules[key], er)
			ev.exits[key] = append(ev.exits[key], inner.Compile(er))
		}
	}
	return ev
}

// Stats returns accumulated statistics.
func (ev *Evaluator) Stats() *Stats { return &ev.stats }

// splitsFor computes (and caches) the chain-splits of the recursive
// rules of predicate key under adornment ad.
func (ev *Evaluator) splitsFor(key, ad string) ([]ruleSplit, error) {
	cacheKey := key + "^" + ad
	if s, ok := ev.splits[cacheKey]; ok {
		return s, nil
	}
	comp := ev.comps[key]
	if comp == nil {
		return nil, fmt.Errorf("counting: no chain form for %s", key)
	}
	out := make([]ruleSplit, 0, len(comp.RecRules))
	for ri, rr := range comp.RecRules {
		if len(rr.RecIdx) != 1 {
			return nil, fmt.Errorf("counting: buffered evaluation requires linear rules; %s has %d recursive literals", rr.Rule, len(rr.RecIdx))
		}
		sp, err := chain.ComputeSplit(ev.an, rr, ad)
		if err != nil {
			return nil, err
		}
		r, rec := ev.recs[key][ri], rr.RecIdx[0]
		rs := ruleSplit{split: sp, rule: r, in: boundArgs(r.Head(), ad), rec: r.Args(rec),
			recIn: boundArgs(r.Args(rec), sp.RecAd), recKey: rr.Rule.Body[rec].Key()}
		// Accumulators apply to the goal predicate's rules only (the
		// partial evaluator analyses a single compiled recursion).
		if ev.opts.Acc != nil && key == ev.goalKey {
			if orig, ok := ev.opts.Acc.IncrementVar[ri]; ok && orig != "" {
				rs.inc = r.Var(orig)
			}
		}
		out = append(out, rs)
	}
	ev.splits[cacheKey] = out
	return out, nil
}

// exitsFor schedules the exit rules of predicate key under adornment
// ad, refusing one with no finite order.
func (ev *Evaluator) exitsFor(key, ad string) ([]ruleSplit, error) {
	cacheKey := key + "^" + ad
	if x, ok := ev.exitSplits[cacheKey]; ok {
		return x, nil
	}
	rules := ev.exitRules[key]
	out := make([]ruleSplit, len(rules))
	for i, er := range rules {
		sched := ev.an.ScheduleRule(er, ad)
		if !sched.OK {
			return nil, &chain.NotFinitelyEvaluableError{
				Rule: er, Adornment: ad, Stuck: sched.Stuck, UnboundHead: sched.UnboundHead,
			}
		}
		r := ev.exits[key][i]
		out[i] = ruleSplit{split: chain.Split{Eval: sched.Order}, rule: r, in: boundArgs(r.Head(), ad)}
	}
	ev.exitSplits[cacheKey] = out
	return out, nil
}

// boundArgs returns the arguments at the bound positions of ad.
func boundArgs(args []term.Term, ad string) []term.Term {
	var out []term.Term
	for _, i := range boundPositions(ad) {
		out = append(out, args[i])
	}
	return out
}

func boundPositions(ad string) []int {
	var out []int
	for i := 0; i < len(ad); i++ {
		if ad[i] == 'b' {
			out = append(out, i)
		}
	}
	return out
}

// ctxKey identifies a context. When an accumulator is active the value
// participates in identity: contexts reached along paths with different
// accumulated values must not be conflated, or a pruned first arrival
// would wrongly cut a cheaper later path. Accumulator monotonicity plus
// the prune bound keeps the key space finite.
func ctxKey(key, ad string, input []term.Term, withAcc bool, acc int64) string {
	var kb []byte
	kb = append(kb, key...)
	kb = append(kb, '^')
	kb = append(kb, ad...)
	for _, t := range input {
		kb = term.AppendKey(kb, t)
	}
	if withAcc {
		kb = append(kb, '#')
		kb = term.AppendKey(kb, term.NewInt(acc))
	}
	return string(kb)
}

// Query evaluates the goal (whose predicate must be the compiled one)
// and returns the answer tuples: full head argument vectors matching
// the goal's ground arguments.
func (ev *Evaluator) Query(goal program.Atom) ([][]term.Term, error) {
	if goal.Key() != ev.goalKey {
		return nil, fmt.Errorf("counting: goal %s does not match compiled %s", goal.Key(), ev.goalKey)
	}
	ad := adorn.GoalAdornment(goal)
	if !strings.ContainsRune(ad, 'b') {
		return nil, fmt.Errorf("counting: buffered evaluation needs at least one bound argument (adornment %s)", ad)
	}
	root, err := ev.down(ev.goalKey, ad, boundArgs(goal.Args, ad))
	if err != nil {
		return nil, err
	}
	// Filter root answers by the goal's ground arguments (defensive;
	// bound positions already match by construction).
	var out [][]term.Term
	for _, ans := range root.List {
		ok := true
		for i, a := range goal.Args {
			if a.Ground() && !term.Equal(a, ans[i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ans)
		}
	}
	return out, nil
}

// down runs the down phase from the root context, firing exits and the
// up phase along the way.
func (ev *Evaluator) down(key, ad string, input []term.Term) (*ctx, error) {
	root, _, err := ev.ensureCtx(key, ad, input, 0, 0)
	if err != nil {
		return nil, err
	}
	frontier := []*ctx{root}
	for level := 0; len(frontier) > 0; level++ {
		if err := everr.Check(ev.opts.Ctx); err != nil {
			return nil, err
		}
		if err := faultinject.Fire(faultinject.SiteCountingLevel); err != nil {
			return nil, err
		}
		if level > ev.opts.maxLevels() {
			return nil, fmt.Errorf("%w: down phase exceeded %d levels", ErrBudget, ev.opts.maxLevels())
		}
		ev.stats.Levels = level
		var next []*ctx
		for _, c := range frontier {
			if c.pruned {
				continue
			}
			children, err := ev.expand(c, level)
			if err != nil {
				return nil, err
			}
			next = append(next, children...)
		}
		// Up phase: drain the propagation worklist before descending
		// further (answers may prune or satisfy lower levels earlier,
		// and cyclic context graphs need fixpoint draining anyway).
		if err := ev.drain(); err != nil {
			return nil, err
		}
		frontier = next
	}
	if err := ev.drain(); err != nil {
		return nil, err
	}
	return root, nil
}

// drain processes the up-phase worklist to exhaustion.
func (ev *Evaluator) drain() error {
	for n := 0; len(ev.pending) > 0; n++ {
		// Cyclic context graphs can propagate unboundedly; check for
		// cancellation every few hundred replays.
		if n&255 == 0 {
			if err := everr.Check(ev.opts.Ctx); err != nil {
				return err
			}
		}
		item := ev.pending[len(ev.pending)-1]
		ev.pending = ev.pending[:len(ev.pending)-1]
		if err := ev.propagate(item.e, item.ans); err != nil {
			return err
		}
	}
	return nil
}

// ensureCtx returns the context for (key, ad, input), creating it (and
// firing its exit rules) if new. The second result reports creation.
func (ev *Evaluator) ensureCtx(key, ad string, input []term.Term, level int, acc int64) (*ctx, bool, error) {
	ck := ctxKey(key, ad, input, ev.opts.Acc != nil, acc)
	if c, ok := ev.ctxs[ck]; ok {
		return c, false, nil
	}
	if len(ev.ctxs) >= ev.opts.maxContexts() {
		return nil, false, fmt.Errorf("%w: more than %d contexts", ErrBudget, ev.opts.maxContexts())
	}
	c := &ctx{key: key, ad: ad, input: input, level: level, acc: acc}
	ev.ctxs[ck] = c
	ev.stats.Contexts++
	ev.opts.Tracer.Point(obsv.PhaseLevel, key, int64(level), int64(ev.stats.Contexts))
	if ev.opts.Tracer.Enabled() {
		ev.traceLevel(level).Contexts++
		ev.stats.Events = append(ev.stats.Events,
			fmt.Sprintf("down L%d %s^%s %s", level, key, ad, termsString(input)))
	}
	if ev.opts.Acc != nil && ev.opts.Acc.RejectsAcc(acc) {
		c.pruned = true
		ev.stats.Pruned++
		return c, true, nil
	}
	if err := ev.fireExits(c); err != nil {
		return nil, false, err
	}
	return c, true, nil
}

func (ev *Evaluator) traceLevel(level int) *LevelStats {
	for len(ev.stats.Profile) <= level {
		ev.stats.Profile = append(ev.stats.Profile, LevelStats{Level: len(ev.stats.Profile)})
	}
	return &ev.stats.Profile[level]
}

// expand evaluates the evaluated portion of every recursive rule at
// context c, creating child contexts and buffered edges.
func (ev *Evaluator) expand(c *ctx, level int) ([]*ctx, error) {
	splits, err := ev.splitsFor(c.key, c.ad)
	if err != nil {
		return nil, err
	}
	var created []*ctx
	for ri := range splits {
		rs := &splits[ri]
		frames, err := ev.inner.Solve(rs.rule, nil, rs.in, c.input, rs.split.Eval)
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			var childInput []term.Term
			for _, t := range rs.recIn {
				v := topdown.Resolve(f, t)
				if !v.Ground() {
					return nil, fmt.Errorf("counting: recursive call of %s not ground at bound positions under %s", ev.comps[c.key].RecRules[ri].Rule, rs.split.RecAd)
				}
				childInput = append(childInput, v)
			}
			acc := c.acc
			if rs.inc != nil {
				if iv, ok := topdown.Resolve(f, rs.inc).(term.Int); ok {
					acc = c.acc + iv.V
				}
			}
			child, isNew, err := ev.ensureCtx(rs.recKey, rs.split.RecAd, childInput, level+1, acc)
			if err != nil {
				return nil, err
			}
			if child.pruned {
				continue
			}
			if ev.stats.Edges >= ev.opts.maxEdges() {
				return nil, fmt.Errorf("%w: more than %d buffered edges", ErrBudget, ev.opts.maxEdges())
			}
			e := edge{parent: c, rs: rs, frame: f}
			child.parents = append(child.parents, e)
			ev.stats.Edges++
			if ev.opts.Tracer.Enabled() {
				ev.traceLevel(level).Edges++
			}
			// Replay existing answers of a shared child through the
			// new edge.
			for _, ans := range child.List {
				ev.pending = append(ev.pending, workItem{e: e, ans: ans})
			}
			if isNew {
				created = append(created, child)
			}
		}
	}
	return created, nil
}

// fireExits evaluates the exit rules at context c, seeding answers.
// Ground facts of the predicate (e.g. "isort([], [])." parsed as a
// fact rather than a rule) act as exit knowledge too.
func (ev *Evaluator) fireExits(c *ctx) error {
	comp := ev.comps[c.key]
	if rel := ev.cat.Get(comp.Pred); rel != nil && rel.Arity() == comp.Arity {
		cols := boundPositions(c.ad)
		for _, tup := range rel.LookupOn(cols, relation.Tuple(c.input)) {
			ev.stats.ExitFires++
			if err := ev.addAnswer(c, []term.Term(tup)); err != nil {
				return err
			}
		}
	}
	exits, err := ev.exitsFor(c.key, c.ad)
	if err != nil {
		return err
	}
	for _, x := range exits {
		frames, err := ev.inner.Solve(x.rule, nil, x.in, c.input, x.split.Eval)
		if err != nil {
			return err
		}
		for _, f := range frames {
			ev.stats.ExitFires++
			if err := ev.addAnswer(c, headOf(x.rule, f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// headOf returns the head arguments of r in the solution frame f.
func headOf(r *topdown.Rule, f []term.Term) []term.Term {
	ans := make([]term.Term, len(r.Head()))
	for j, h := range r.Head() {
		ans[j] = topdown.Resolve(f, h)
	}
	return ans
}

// addAnswer records an answer at c and enqueues its propagation
// through all buffered edges toward the root.
func (ev *Evaluator) addAnswer(c *ctx, ans []term.Term) error {
	for _, a := range ans {
		if !a.Ground() {
			return fmt.Errorf("counting: non-ground answer %v at context %s", ans, c.ad)
		}
	}
	if !c.Add(ans, &ev.key) {
		return nil
	}
	ev.stats.Answers++
	ev.opts.Tracer.Point(obsv.PhaseAnswer, c.key, int64(c.level), int64(ev.stats.Answers))
	if ev.opts.Tracer.Enabled() {
		ev.stats.Events = append(ev.stats.Events,
			fmt.Sprintf("answer L%d %s %s", c.level, c.key, termsString(ans)))
	}
	if ev.stats.Answers > ev.opts.maxAnswers() {
		return fmt.Errorf("%w: more than %d answers (non-terminating chain?)", ErrBudget, ev.opts.maxAnswers())
	}
	if ev.opts.Tracer.Enabled() {
		ev.traceLevel(c.level).Answers++
	}
	for _, e := range c.parents {
		ev.pending = append(ev.pending, workItem{e: e, ans: ans})
	}
	return nil
}

// propagate replays one answer of a child context through edge e: the
// delayed portion runs on the buffered frame with the recursive call's
// answer unified in, and derives the parent's answers.
func (ev *Evaluator) propagate(e edge, ans []term.Term) error {
	ev.stats.UpJoins++
	frames, err := ev.inner.Solve(e.rs.rule, e.frame, e.rs.rec, ans, e.rs.split.Delayed)
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := ev.addAnswer(e.parent, headOf(e.rs.rule, f)); err != nil {
			return err
		}
	}
	return nil
}

// termsString renders a term vector compactly for the event log.
func termsString(ts []term.Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
