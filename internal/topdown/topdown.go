// Package topdown implements a tabled, goal-directed evaluator whose
// subgoal scheduling is the chain-split rule of the paper's Section 4:
// at every step it evaluates the leftmost body literal that is
// *finitely evaluable under the current bindings* — immediately
// evaluable portions run before the recursive call, and delayed
// portions (e.g. the cons(X1, W1, W) rebuilding a list, or the insert
// call of isort) run after the recursion returns with their inputs
// bound. This reproduces the paper's isort([5,7,1]) and qsort([4,9,5])
// traces literally; as there, the query's ground list is one term that
// the first rule applied decomposes.
//
// Tabling (QSQR-style iterate-to-fixpoint) makes the engine complete on
// function-free recursions over cyclic data as well, so it doubles as a
// differential-testing oracle for the bottom-up engines.
//
// New compiles every rule once into literals over numbered slots (see
// frame.go); an activation runs on a frame of those slots with a trail
// that undoes its bindings on backtracking, so a step copies no
// substitution and looks up neither a builtin nor a rule by name. A
// call's table is keyed on its canonical arguments, and a rule's
// answers enter the table once its body has finished. A builtin other
// than cons/3 runs on the literal's arguments resolved in the frame, and
// each solution it returns is unified with them there; SolveConjunction
// hands back its solutions as term.Subst. Solve runs chosen literals of
// a rule compiled with Compile and hands back solution frames: the
// buffered evaluator runs a recursive rule's evaluated and delayed
// portions through it, on either side of the recursive call.
package topdown

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"chainsplit/internal/adorn"
	"chainsplit/internal/builtin"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// ErrBudget is returned when evaluation exceeds the step or depth
// budget. It wraps everr.ErrBudget.
var ErrBudget = fmt.Errorf("topdown: %w", everr.ErrBudget)

// ErrFlounder is returned when no remaining body literal is finitely
// evaluable — the runtime signature of an infinitely evaluable goal
// that even chain-split cannot rescue. It wraps everr.ErrUnsafe.
var ErrFlounder = fmt.Errorf("topdown: goal floundered (no finitely evaluable literal): %w", everr.ErrUnsafe)

// Options configures the engine.
type Options struct {
	// Ctx, when non-nil, is checked at pass boundaries and every few
	// resolution steps: cancellation and deadlines stop the evaluation
	// with everr.ErrCanceled / everr.ErrDeadline.
	Ctx context.Context
	// MaxSteps bounds total literal evaluations
	// (0 = defaultMaxSteps, 10,000,000).
	MaxSteps int
	// MaxDepth bounds nesting: an IDB call, and a literal's solution
	// running the rest of its body, each nest one level deeper
	// (0 = defaultMaxDepth, 150,000).
	MaxDepth int
	// Tracer, when non-nil, receives one structured event per QSQR
	// fixpoint pass (obsv.PhaseRound). A nil tracer costs nothing.
	Tracer *obsv.Tracer
	// Analysis is the finiteness analysis of the program, shared with
	// the planner that chose this engine; nil builds one.
	Analysis *adorn.Analysis
}

// The budgets a zero Options field stands for. A level of nesting
// costs at most ≈750 bytes of goroutine stack where measured, so the
// depth bound ends a recursion in ErrBudget at ≈113 MB of stack, before
// Go's fatal stack overflow, which no recover catches
// (docs/robustness.md).
const (
	defaultMaxSteps = 10_000_000
	defaultMaxDepth = 150_000
)

// maxPasses bounds QSQR fixpoint passes.
const maxPasses = 10_000

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return defaultMaxSteps
}

func (o Options) maxDepth() int {
	if o.MaxDepth > 0 {
		return o.MaxDepth
	}
	return defaultMaxDepth
}

// Stats reports evaluation effort.
type Stats struct {
	Steps      int // literal evaluations
	Calls      int // IDB calls (including table hits)
	TableHits  int
	Passes     int // QSQR fixpoint passes
	MaxDepthAt int // deepest nesting (Options.MaxDepth) at a call
}

// entry is the table of one canonical call.
type entry struct {
	Answers
	complete bool
	// running marks a call whose rules are being evaluated.
	running bool
	// pass is the QSQR pass in which this table was last evaluated;
	// within one pass a table is evaluated at most once and later
	// calls consume its (possibly still growing) answers, with the
	// pass loop re-iterating until nothing grows.
	pass int
}

// Answers lists distinct answers: a call's table, and a buffered
// evaluator's context. The set of their keys is built at the second
// answer, so a functional call or context, which has one, builds none.
type Answers struct {
	List [][]term.Term
	seen map[string]bool
}

// Add appends ans unless the list holds it, and reports whether it did;
// key is the caller's scratch buffer for answer keys.
func (s *Answers) Add(ans []term.Term, key *[]byte) bool {
	if len(s.List) > 0 {
		if s.seen == nil {
			s.seen = map[string]bool{string(answerKey(key, s.List[0])): true}
		}
		kb := answerKey(key, ans)
		if s.seen[string(kb)] {
			return false
		}
		s.seen[string(kb)] = true
	}
	s.List = append(s.List, ans)
	return true
}

// answerKey returns the key of ans, built in the buffer key.
func answerKey(key *[]byte, ans []term.Term) []byte {
	kb := (*key)[:0]
	for _, t := range ans {
		kb = term.AppendKey(kb, t)
	}
	*key = kb
	return kb
}

// Engine evaluates goals against one program and catalog.
type Engine struct {
	an  *adorn.Analysis
	cat *relation.Catalog
	// preds holds the compiled rules of every IDB predicate, by key.
	preds map[string]*pred
	opts  Options
	stats Stats
	// passLimit is maxPasses; tests lower it to reach the budget.
	passLimit          int
	maxSteps, maxDepth int

	table map[string]*entry

	// stack holds the frames of the live activations; trail lists the
	// stack positions bound, in binding order. Both grow by doubling and
	// are kept for the engine's next solve.
	stack []term.Term
	trail []int
	// pending holds the answers of the rule bodies running, which
	// enter their tables when their body has finished.
	pending [][]term.Term
	// Scratch: table and answer keys, probe keys, the slots canon has
	// renamed, the variables adopt has given slots, the variables export
	// has named, and pick's memo key.
	key      []byte
	probeKey relation.Tuple
	seen     []int
	foreign  []foreignVar
	fresh    map[int]term.Term
	pickKey  []byte

	renamer *term.Renamer

	// sawPartial reports that the current pass consumed a table that
	// may still grow; derived counts the answers added to any table.
	sawPartial bool
	derived    int
	curPass    int
}

// New prepares an engine over the rectified program and EDB catalog.
// Ground program facts are loaded into the catalog, then every rule is
// compiled.
func New(prog *program.Program, cat *relation.Catalog, opts Options) *Engine {
	an := opts.Analysis
	if an == nil {
		an = adorn.NewAnalysis(prog)
	}
	e := &Engine{
		an:        an,
		cat:       cat,
		preds:     make(map[string]*pred),
		opts:      opts,
		passLimit: maxPasses,
		maxSteps:  opts.maxSteps(),
		maxDepth:  opts.maxDepth(),
		table:     make(map[string]*entry),
		renamer:   term.NewRenamer("_T"),
	}
	for _, f := range prog.Facts {
		tup := relation.Tuple(f.Args)
		// Facts already present (the usual case on a copy-on-write
		// snapshot of a live database) need no write; Ensure would put
		// a private log over the shared relation.
		if rel := cat.Get(f.Pred); rel != nil && rel.Arity() == f.Arity() && rel.Contains(tup) {
			continue
		}
		cat.Ensure(f.Pred, f.Arity()).Insert(tup)
	}
	for _, r := range prog.Rules {
		if k := r.Head.Key(); e.preds[k] == nil {
			e.preds[k] = &pred{key: k}
		}
	}
	for _, r := range prog.Rules {
		p := e.preds[r.Head.Key()]
		p.rules = append(p.rules, e.Compile(r))
	}
	return e
}

// Stats returns accumulated statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// Analysis returns the finiteness analysis of the engine's program.
func (e *Engine) Analysis() *adorn.Analysis { return e.an }

// act is one activation of a body on the frame at base.
type act struct {
	body *body
	base int
	// solved marks the literals whose solutions are being extended
	// (wide holds them for bodies of more than 64 literals).
	solved uint64
	wide   []bool
	// rule is the rule a called rule body's answers are built from; nil
	// for a query or Solve, whose solutions go to yield with the frame's
	// base and the activation's mark.
	rule  *Rule
	yield func(base, mark int)
	// k is the number of the call's free variables, whose slots follow
	// the rule's own; mark is the trail length at the start.
	k    int
	mark int
}

func (a *act) isSolved(i int) bool {
	if a.wide != nil {
		return a.wide[i]
	}
	return a.solved&(1<<i) != 0
}

func (a *act) setSolved(i int, on bool) {
	switch {
	case a.wide != nil:
		a.wide[i] = on
	case on:
		a.solved |= 1 << i
	default:
		a.solved &^= 1 << i
	}
}

// state is what the rest of a body runs under: its ground and
// partially bound slots (the first 64), the literals left, the nesting
// depth (Options.MaxDepth), and whether it is a negation's probe, which
// only asks whether the literal has a solution.
type state struct {
	ground, partial uint64
	left, depth     int
	probe           bool
}

// newAct pushes a frame of n slots for an activation of b.
func (e *Engine) newAct(b *body, n int) act {
	a := act{body: b, base: len(e.stack), mark: len(e.trail)}
	if len(b.lits) > 64 {
		a.wide = make([]bool, len(b.lits))
	}
	e.push(n)
	return a
}

// SolveConjunction evaluates a conjunctive query with chain-split
// scheduling across the whole conjunction, returning all solution
// substitutions. Non-ground compound goal arguments are flattened
// first (program.RectifyGoals); a ground list stays one term, which
// unifies with a rule head in O(1).
func (e *Engine) SolveConjunction(goals []program.Atom) ([]term.Subst, error) {
	atoms := program.RectifyGoals(goals)
	_, q := e.compile(nil, atoms)
	var keys []string
	all := make([]int, len(atoms))
	for i, g := range atoms {
		keys = append(keys, g.Key())
		all[i] = i
	}
	if _, err := e.an.Graph().Stratify(keys...); err != nil {
		return nil, fmt.Errorf("topdown: %w", err)
	}
	var sols []term.Subst
	err := e.fixpoint(true, func() error {
		sols = nil
		return e.run(q, nil, nil, nil, all, func(base, mark int) { sols = append(sols, e.solution(q, base, mark)) })
	})
	if err != nil {
		return nil, err
	}
	return sols, nil
}

// Solve runs the literals lits of r, in chain-split order, on a frame
// loaded from frame (nil for one with every slot unbound) once args,
// frame terms of r such as a literal's arguments, unify with the values
// tuple; r's other literals count as solved. It runs the tabling
// fixpoint to completion and returns each solution's frame: the stack
// from the frame's first slot up to its top, copied, so the $m in its
// bindings keep their meaning and the frame may be loaded again.
func (e *Engine) Solve(r *Rule, frame, args, tuple []term.Term, lits []int) ([][]term.Term, error) {
	var frames [][]term.Term
	err := e.fixpoint(false, func() error {
		frames = frames[:0]
		return e.run(r.body, frame, args, tuple, lits, func(base, _ int) {
			frames = append(frames, slices.Clone(e.stack[base:]))
		})
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// run solves the literals lits of b, the others marked solved, on a
// frame loaded from slots once args unify with tuple, and passes each
// solution to yield.
func (e *Engine) run(b *body, slots, args, tuple []term.Term, lits []int, yield func(base, mark int)) error {
	a := e.newAct(b, max(len(b.names), len(slots)))
	a.yield = yield
	for s, t := range slots {
		if t != nil {
			e.bind(a.base+s, t)
		}
	}
	ok := true
	for j := 0; ok && j < len(args); j++ {
		ok = e.unify(a.base, args[j], tuple[j])
	}
	var err error
	if ok {
		for i := range b.lits {
			a.setSolved(i, true)
		}
		for _, i := range lits {
			a.setSolved(i, false)
		}
		st := state{left: len(lits)}
		st.bound(e, &a, a.mark)
		err = e.solveBody(&a, st)
	}
	e.undo(a.mark, a.base)
	return err
}

// fixpoint is the QSQR pass loop: it runs solve, with tables retained,
// until a pass consumes no partial table or derives no new answer.
// Partial tables grow monotonically toward the fixpoint. counted passes
// enter Stats.Passes and the tracer's PhaseRound events.
func (e *Engine) fixpoint(counted bool, solve func() error) error {
	for pass := 0; ; pass++ {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return err
		}
		if pass >= e.passLimit {
			return fmt.Errorf("%w: %d fixpoint passes", ErrBudget, pass)
		}
		if counted {
			e.stats.Passes++
			e.opts.Tracer.Point(obsv.PhaseRound, "qsqr", int64(e.stats.Passes), int64(e.stats.Steps))
		}
		e.curPass++
		e.sawPartial = false
		before := e.derived
		err := solve()
		if err != nil || !e.sawPartial || e.derived == before {
			return err
		}
	}
}

// solveBody evaluates the unsolved literals of a under st with
// chain-split scheduling; past the last it emits a's answer or
// solution. An error abandons the activation.
func (e *Engine) solveBody(a *act, st state) error {
	if st.left == 0 {
		e.emit(a)
		return nil
	}
	if st.depth > e.maxDepth {
		return fmt.Errorf("%w: depth %d", ErrBudget, st.depth)
	}
	p := e.pick(a, st.ground)
	if p < 0 {
		return e.flounder(a)
	}
	return e.solveLit(a, p, st)
}

// flounder reports a's unsolved literals, none of which may run. (Kept
// out of solveBody, whose frame every body literal adds to the stack.)
func (e *Engine) flounder(a *act) error {
	var parts []string
	for i := range a.body.lits {
		if !a.isSolved(i) {
			parts = append(parts, e.display(a, &a.body.lits[i]).String())
		}
	}
	return fmt.Errorf("%w: %s", ErrFlounder, strings.Join(parts, ", "))
}

// builtinErr reports err from literal l of a.
func (e *Engine) builtinErr(a *act, l *lit, err error) error {
	return fmt.Errorf("topdown: %s: %w", e.display(a, l), err)
}

// next continues a after literal i produced a solution whose bindings
// start at trail position mark.
func (e *Engine) next(a *act, i int, st state, mark int) error {
	if st.probe {
		return errFound
	}
	st.left--
	st.depth++
	st.bound(e, a, mark)
	a.setSolved(i, true)
	err := e.solveBody(a, st)
	a.setSolved(i, false)
	return err
}

// bound updates st for the slots of a bound since trail position mark:
// each is ground or partial, and a partial slot may have become ground
// through any binding.
func (st *state) bound(e *Engine, a *act, mark int) {
	for _, idx := range e.trail[mark:] {
		if s := idx - a.base; s < 64 && s < len(a.body.names) {
			if e.ground(a.base, e.stack[idx]) {
				st.ground |= 1 << s
			} else {
				st.partial |= 1 << s
			}
		}
	}
	if st.partial != 0 && len(e.trail) > mark {
		for q := st.partial; q != 0; q &= q - 1 {
			s := bits.TrailingZeros64(q)
			if e.ground(a.base, e.stack[a.base+s]) {
				st.ground |= 1 << s
				st.partial &^= 1 << s
			}
		}
	}
}

// errFound stops a negation's probe at the first solution.
var errFound = errors.New("topdown: solution found")

// pick returns the index of the leftmost unsolved literal of a's body
// that may run (adorn.Ready: the chain-split rule), or -1. Readiness
// reads only which variables are ground, so the pick is memoized on the
// solved literals plus the ground slots.
func (e *Engine) pick(a *act, ground uint64) int {
	b := a.body
	if b.narrow {
		k := [2]uint64{a.solved, ground}
		if p, ok := b.picks[k]; ok {
			return p
		}
		p := e.choose(a, func(s int) bool { return ground&(1<<s) != 0 })
		b.picks[k] = p
		return p
	}
	isGround := func(s int) bool {
		if s < 64 {
			return ground&(1<<s) != 0
		}
		return e.stack[a.base+s] != nil && e.ground(a.base, e.stack[a.base+s])
	}
	key := e.pickKey[:0]
	for i := range b.lits {
		key = append(key, 'u')
		if a.isSolved(i) {
			key[len(key)-1] = 's'
		}
	}
	for s := range b.names {
		key = append(key, 'f')
		if isGround(s) {
			key[len(key)-1] = 'b'
		}
	}
	e.pickKey = key
	if p, ok := b.widePicks[string(key)]; ok {
		return p
	}
	p := e.choose(a, isGround)
	b.widePicks[string(key)] = p
	return p
}

// choose applies adorn.Ready to the unsolved literals in order.
func (e *Engine) choose(a *act, isGround func(s int) bool) int {
	b := a.body
	bound := make(map[string]bool)
	for s, name := range b.names {
		if isGround(s) {
			bound[name] = true
		}
	}
	var rest []program.Atom
	var at []int
	for i, g := range b.atoms {
		if !a.isSolved(i) {
			rest, at = append(rest, g), append(at, i)
		}
	}
	var occ map[string]int // over the unsolved goals, built at the first negation
	for j, g := range rest {
		if g.Negated && occ == nil {
			occ = adorn.Occurrences(rest...)
		}
		if adorn.Ready(g, bound, occ, e.an.Finite) {
			return at[j]
		}
	}
	return -1
}

// step counts one literal evaluation against the budgets.
func (e *Engine) step() error {
	e.stats.Steps++
	if e.stats.Steps&1023 == 0 {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return err
		}
	}
	if err := faultinject.Fire(faultinject.SiteTopdownStep); err != nil {
		return err
	}
	if e.stats.Steps > e.maxSteps {
		return fmt.Errorf("%w: %d steps", ErrBudget, e.stats.Steps)
	}
	return nil
}

// solveLit evaluates literal i of a and runs the rest of the body under
// each of its solutions.
func (e *Engine) solveLit(a *act, i int, st state) error {
	if err := e.step(); err != nil {
		return err
	}
	l := &a.body.lits[i]
	switch {
	case l.neg && !st.probe:
		found, err := e.refuted(a, i, st)
		if err != nil || found {
			return err
		}
		return e.next(a, i, st, len(e.trail))
	case l.kind == litCons:
		return e.solveCons(a, i, l, st)
	case l.kind == litBuiltin:
		return e.solveBuiltin(a, i, l, st)
	}
	return e.solveRel(a, i, l, st)
}

// refuted reports whether the positive form of literal i, a negation,
// has a solution. A found answer refutes the negation for good, but a
// failure read off a table that may still grow is final only once that
// table is: then the positive goal runs to its own fixpoint.
// Stratification keeps the tables in progress out of its cone.
func (e *Engine) refuted(a *act, i int, st state) (bool, error) {
	saw := e.sawPartial
	e.sawPartial = false
	found, err := e.probe(a, i, st)
	if err == nil && !found && e.sawPartial {
		err = e.fixpoint(false, func() error {
			var err error
			found, err = e.probe(a, i, st)
			return err
		})
	}
	e.sawPartial = saw
	return found, err
}

// probe reports whether the positive form of literal i has a solution,
// leaving no binding behind.
func (e *Engine) probe(a *act, i int, st state) (bool, error) {
	mark, top := len(e.trail), len(e.stack)
	st.probe = true
	err := e.solveLit(a, i, st)
	e.undo(mark, top)
	if err == errFound {
		return true, nil
	}
	return false, err
}

// solveCons is cons(H, T, L) as a frame unification: it decomposes a
// bound L and builds L from a bound H and T. A non-list L fails; a free
// L with H or T free is insufficiently instantiated. A cell the body's
// last literal builds is built from H's and T's values; an earlier one
// holds their slots, like the literal's own arguments, so a cell that
// a later literal rejects (isort's insert builds its answer before
// comparing) is never resolved, and no dictionary entry is made for it.
func (e *Engine) solveCons(a *act, i int, l *lit, st state) error {
	mark, top := len(e.trail), len(e.stack)
	ok, err := e.cons(a, l, st.left > 1)
	if ok {
		err = e.next(a, i, st, mark)
	}
	e.undo(mark, top)
	return err
}

// cons unifies literal l of a, cons(H, T, L), in the frame; lazy builds
// the cell from H's and T's slots rather than their values.
func (e *Engine) cons(a *act, l *lit, lazy bool) (bool, error) {
	h, t := e.walk(a.base, l.args[0]), e.walk(a.base, l.args[1])
	switch lv := e.walk(a.base, l.args[2]).(type) {
	case term.Comp:
		return lv.Functor == term.ConsFunctor && len(lv.Args) == 2 &&
			e.unify(a.base, h, lv.Args[0]) && e.unify(a.base, t, lv.Args[1]), nil
	case term.Var:
		_, hv := h.(term.Var)
		_, tv := t.(term.Var)
		if hv || tv {
			return false, e.builtinErr(a, l, builtin.ErrInsufficient)
		}
		if lazy {
			h, t = l.args[0], l.args[1]
		}
		return e.bindVar(a.base, lv, term.Cons(h, t)), nil
	}
	return false, nil
}

// solveBuiltin runs l's builtin on its arguments resolved in the frame
// and unifies each solution with them there.
func (e *Engine) solveBuiltin(a *act, i int, l *lit, st state) error {
	args := make([]term.Term, len(l.args))
	for j, t := range l.args {
		args[j] = e.resolve(a.base, t)
	}
	sols, err := l.b.Solve(args)
	if err != nil {
		return e.builtinErr(a, l, err)
	}
	for _, sol := range sols {
		mark, top := len(e.trail), len(e.stack)
		e.foreign = e.foreign[:0]
		ok := true
		for j := 0; ok && j < len(sol); j++ {
			// A ground argument the solution leaves as it was binds
			// nothing.
			if !args[j].Ground() || !term.Equal(args[j], sol[j]) {
				ok = e.unify(a.base, l.args[j], e.adopt(a.base, sol[j]))
			}
		}
		if ok {
			err = e.next(a, i, st, mark)
		}
		e.undo(mark, top)
		if err != nil {
			return err
		}
	}
	return nil
}

// solveRel solves a relation literal: its EDB tuples, then the answers
// of its IDB call. The call is evaluated before any solution runs on,
// and only the answers it had then are read.
func (e *Engine) solveRel(a *act, i int, l *lit, st state) error {
	var answers [][]term.Term
	if l.pred != nil {
		ent, err := e.call(a, l, st.depth)
		if err != nil {
			return err
		}
		answers = ent.List
	}
	if l.rel != nil {
		if err := e.solveEDB(a, i, l, st); err != nil {
			return err
		}
	}
	for _, ans := range answers {
		mark, top := len(e.trail), len(e.stack)
		var err error
		if e.matchAnswer(a, l, ans) {
			err = e.next(a, i, st, mark)
		}
		e.undo(mark, top)
		if err != nil {
			return err
		}
	}
	return nil
}

// matchAnswer unifies l's arguments with a tabled answer. The answer's
// free variables take fresh slots at the top of the stack, which a's
// frame ends at.
func (e *Engine) matchAnswer(a *act, l *lit, ans []term.Term) bool {
	top, renamed := len(e.stack), false
	for j := range l.args {
		t := ans[j]
		if !t.Ground() {
			if !renamed {
				e.push(width(ans))
				renamed = true
			}
			t = shift(t, top-a.base)
		}
		if !e.unify(a.base, l.args[j], t) {
			return false
		}
	}
	return true
}

// solveEDB matches l against its relation: the arguments ground in the
// frame select tuples through an index, and the rest are unified.
func (e *Engine) solveEDB(a *act, i int, l *lit, st state) error {
	var cols uint64
	key := e.probeKey[:0]
	for j := range l.args {
		if j >= 64 {
			break
		}
		if v := e.resolve(a.base, l.args[j]); v.Ground() {
			cols |= 1 << j
			key = append(key, v)
		}
	}
	e.probeKey = key
	try := func(tup relation.Tuple) error {
		mark, top := len(e.trail), len(e.stack)
		ok := true
		for j := range l.args {
			if j < 64 && cols&(1<<j) != 0 {
				continue
			}
			if !e.unify(a.base, l.args[j], tup[j]) {
				ok = false
				break
			}
		}
		var err error
		if ok {
			err = e.next(a, i, st, mark)
		}
		e.undo(mark, top)
		return err
	}
	if cols == 0 {
		for p, n := 0, l.rel.Len(); p < n; p++ {
			if err := try(l.rel.At(p)); err != nil {
				return err
			}
		}
		return nil
	}
	m := l.index(cols).Probe(key)
	for p := 0; p < m.Len(); p++ {
		if err := try(m.At(p)); err != nil {
			return err
		}
	}
	return nil
}

// call evaluates an IDB literal through its table and returns the
// table: the call's arguments, canonical, are its key, and each rule
// runs against them in a fresh frame.
func (e *Engine) call(a *act, l *lit, depth int) (*entry, error) {
	e.stats.Calls++
	if depth > e.stats.MaxDepthAt {
		e.stats.MaxDepthAt = depth
	}
	var buf [4]term.Term // most calls' arguments fit on the goroutine stack
	args := buf[:0]
	kb := append(e.key[:0], l.pred.key...)
	e.seen = e.seen[:0]
	for j := range l.args {
		t := e.canon(a.base, l.args[j])
		args = append(args, t)
		kb = term.AppendKey(kb, t)
	}
	e.key = kb
	k := len(e.seen)
	ent := e.table[string(kb)]
	if ent == nil {
		ent = &entry{}
		e.table[string(kb)] = ent
	}
	if ent.complete || ent.running || ent.pass == e.curPass {
		if !ent.complete {
			// Serving an in-progress or already-evaluated-this-pass
			// table: its answers may still grow, so another pass is
			// required before anything depending on it is final.
			e.sawPartial = true
		} else {
			e.stats.TableHits++
		}
		return ent, nil
	}
	ent.pass, ent.running = e.curPass, true
	for _, r := range l.pred.rules {
		if err := e.runRule(r, args, k, ent, depth+1); err != nil {
			ent.running = false
			return nil, err
		}
	}
	ent.running = false
	// The table is complete unless a partial (in-progress) table was
	// consumed anywhere this pass — conservative, but sound: the pass
	// loop re-runs until tables stop growing, and a later quiet pass
	// marks them complete.
	if !e.sawPartial {
		ent.complete = true
	}
	return ent, nil
}

// runRule runs r against the canonical arguments args, which have k
// free variables, and adds its answers to ent once its body has
// finished.
func (e *Engine) runRule(r *Rule, args []term.Term, k int, ent *entry, depth int) error {
	b := r.body
	a := e.newAct(b, len(b.names)+k)
	a.rule, a.k = r, k
	pend := len(e.pending)
	var err error
	if e.matchHead(&a, args) {
		st := state{left: len(b.lits), depth: depth}
		st.bound(e, &a, a.mark)
		err = e.solveBody(&a, st)
	}
	e.undo(a.mark, a.base)
	e.settle(ent, pend, err == nil)
	return err
}

// matchHead unifies the head of a's rule with the call's canonical
// arguments; their free variables $j are the slots after the rule's.
func (e *Engine) matchHead(a *act, args []term.Term) bool {
	for j, h := range a.rule.head {
		t := args[j]
		if !t.Ground() {
			t = shift(t, len(a.body.names))
		}
		if !e.unify(a.base, h, t) {
			return false
		}
	}
	return true
}

// settle moves the answers pending from position pend into ent when add
// is set, and drops them.
func (e *Engine) settle(ent *entry, pend int, add bool) {
	if add {
		for _, ans := range e.pending[pend:] {
			if ent.Add(ans, &e.key) {
				e.derived++
			}
		}
	}
	clear(e.pending[pend:])
	e.pending = e.pending[:pend]
}

// emit records the answer of a's rule, or passes a's solution to its
// yield.
func (e *Engine) emit(a *act) {
	r := a.rule
	if r == nil {
		a.yield(a.base, a.mark)
		return
	}
	ans := make([]term.Term, len(r.head))
	ground := true
	for j := range r.head {
		ans[j] = e.resolve(a.base, r.head[j])
		ground = ground && ans[j].Ground()
	}
	if !ground {
		e.seen = e.seen[:0]
		for j := range ans {
			ans[j] = e.canon(a.base, ans[j])
		}
	}
	e.pending = append(e.pending, ans)
}

// solution returns the solution of query q whose frame at base was
// bound since trail position mark: the substitution of q's variables.
func (e *Engine) solution(q *body, base, mark int) term.Subst {
	if len(e.trail) == mark {
		return term.Subst{}
	}
	sol := term.NewSubst()
	clear(e.fresh)
	for _, idx := range e.trail[mark:] {
		if s := idx - base; s < len(q.names) {
			sol.Bind(term.Var{Name: q.names[s]}, e.export(q.names, base, e.stack[idx]))
		}
	}
	return sol
}

// export resolves t out of the frame at base for a solution: the slot
// of a variable names names becomes that variable, any other unbound
// slot a fresh variable, the same one throughout the solution
// (e.fresh).
func (e *Engine) export(names []string, base int, t term.Term) term.Term {
	t = e.walk(base, t)
	switch tt := t.(type) {
	case term.Var:
		s := slotOf(tt)
		if s < len(names) {
			return term.Var{Name: names[s]}
		}
		v, ok := e.fresh[s]
		if !ok {
			if e.fresh == nil {
				e.fresh = make(map[int]term.Term)
			}
			v = e.renamer.Fresh()
			e.fresh[s] = v
		}
		return v
	case term.Comp:
		if tt.Ground() {
			return t
		}
		args := make([]term.Term, len(tt.Args))
		for i, x := range tt.Args {
			args[i] = e.export(names, base, x)
		}
		return term.NewComp(tt.Functor, args...)
	}
	return t
}

// display renders literal l of a for a message: bound variables show
// their values, unbound ones their names ($j for a call's j-th free
// variable).
func (e *Engine) display(a *act, l *lit) program.Atom {
	var name func(t term.Term) term.Term
	name = func(t term.Term) term.Term {
		switch t := e.walk(a.base, t).(type) {
		case term.Var:
			s, n := slotOf(t), len(a.body.names)
			switch {
			case s < n:
				return term.NewVar(a.body.names[s])
			case a.rule != nil && s < n+a.k:
				return ref(s - n)
			}
			return t
		case term.Comp:
			if t.Ground() {
				return t
			}
			args := make([]term.Term, len(t.Args))
			for i, x := range t.Args {
				args[i] = name(x)
			}
			return term.NewComp(t.Functor, args...)
		default:
			return t
		}
	}
	args := make([]term.Term, len(l.args))
	for j := range l.args {
		args[j] = name(l.args[j])
	}
	return program.Atom{Pred: l.atom.Pred, Args: args, Negated: l.atom.Negated}
}
