// Package topdown implements a tabled, goal-directed evaluator whose
// subgoal scheduling is the chain-split rule of the paper's Section 4:
// at every step it evaluates the leftmost body literal that is
// *finitely evaluable under the current bindings* — immediately
// evaluable portions run before the recursive call, and delayed
// portions (e.g. the cons(X1, W1, W) rebuilding a list, or the insert
// call of isort) run after the recursion returns with their inputs
// bound. This reproduces the paper's isort([5,7,1]) and qsort([4,9,5])
// traces literally.
//
// Tabling (QSQR-style iterate-to-fixpoint) makes the engine complete on
// function-free recursions over cyclic data as well, so it doubles as a
// differential-testing oracle for the bottom-up engines.
package topdown

import (
	"context"
	"fmt"
	"strconv"
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
	// MaxDepth bounds call nesting (0 = defaultMaxDepth, 1,000,000).
	MaxDepth int
	// Tracer, when non-nil, receives one structured event per QSQR
	// fixpoint pass (obsv.PhaseRound). A nil tracer costs nothing.
	Tracer *obsv.Tracer
}

// The budgets a zero Options field stands for.
const (
	defaultMaxSteps = 10_000_000
	defaultMaxDepth = 1_000_000
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
	MaxDepthAt int // deepest call nesting observed
}

type entry struct {
	answers  [][]term.Term
	seen     map[string]bool
	complete bool
	// pass is the QSQR pass in which this table was last evaluated;
	// within one pass a table is evaluated at most once and later
	// calls consume its (possibly still growing) answers, with the
	// pass loop re-iterating until nothing grows.
	pass int
}

// Engine evaluates goals against one program and catalog.
type Engine struct {
	an  *adorn.Analysis
	cat *relation.Catalog
	// rules indexes the program's rules by head key, in program
	// order; its key set is the IDB.
	rules map[string][]program.Rule
	opts  Options
	stats Stats
	// passLimit is maxPasses; tests lower it to reach the budget.
	passLimit int

	table      map[string]*entry
	inProgress map[string]bool
	renamer    *term.Renamer

	// per-pass state
	sawPartial bool
	newAnswers bool
	curPass    int
}

// New prepares an engine over the rectified program and EDB catalog.
// Ground program facts are loaded into the catalog.
func New(prog *program.Program, cat *relation.Catalog, opts Options) *Engine {
	e := &Engine{
		an:         adorn.NewAnalysis(prog),
		cat:        cat,
		rules:      make(map[string][]program.Rule),
		opts:       opts,
		passLimit:  maxPasses,
		table:      make(map[string]*entry),
		inProgress: make(map[string]bool),
		renamer:    term.NewRenamer("_T"),
	}
	for _, r := range prog.Rules {
		k := r.Head.Key()
		e.rules[k] = append(e.rules[k], r)
	}
	for _, f := range prog.Facts {
		tup := relation.Tuple(f.Args)
		// Facts already present (the usual case on a copy-on-write
		// snapshot of a live database) need no write; Ensure would
		// clone the shared relation.
		if rel := cat.Get(f.Pred); rel != nil && rel.Arity() == f.Arity() && rel.Contains(tup) {
			continue
		}
		cat.Ensure(f.Pred, f.Arity()).Insert(tup)
	}
	return e
}

// Stats returns accumulated statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// SolveConjunction evaluates a conjunctive query with chain-split
// scheduling across the whole conjunction, returning all solution
// substitutions. Goal arguments are flattened first, so ground
// compound arguments (lists) become immediately evaluable cons
// constructions.
func (e *Engine) SolveConjunction(goals []program.Atom) ([]term.Subst, error) {
	var body []program.Atom
	for _, g := range goals {
		flat, defs := program.RectifyGoal(g)
		body = append(body, defs...)
		body = append(body, flat)
	}
	if err := e.an.Graph().CheckStratified(); err != nil {
		return nil, fmt.Errorf("topdown: %v", err)
	}
	for pass := 0; ; pass++ {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return nil, err
		}
		if pass >= e.passLimit {
			return nil, fmt.Errorf("%w: %d fixpoint passes", ErrBudget, pass)
		}
		e.stats.Passes++
		e.opts.Tracer.Point(obsv.PhaseRound, "qsqr", int64(e.stats.Passes), int64(e.stats.Steps))
		e.curPass++
		e.sawPartial = false
		e.newAnswers = false
		sols, err := e.solveBody(body, term.NewSubst(), 0)
		if err != nil {
			return nil, err
		}
		if !e.sawPartial || !e.newAnswers {
			return sols, nil
		}
		// Re-iterate with tables retained; partial tables grow
		// monotonically toward the fixpoint.
	}
}

// SolveUnder evaluates one literal under an existing substitution,
// running the tabling fixpoint to completion. It is the composition
// hook used by the buffered evaluator to solve nested IDB subgoals
// (e.g. isort's delayed insert call) inside chain portions.
func (e *Engine) SolveUnder(g program.Atom, s term.Subst) ([]term.Subst, error) {
	for pass := 0; ; pass++ {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return nil, err
		}
		if pass >= e.passLimit {
			return nil, fmt.Errorf("%w: %d fixpoint passes", ErrBudget, pass)
		}
		e.curPass++
		e.sawPartial = false
		e.newAnswers = false
		sols, err := e.solveLiteral(g, s, 0)
		if err != nil {
			return nil, err
		}
		if !e.sawPartial || !e.newAnswers {
			return sols, nil
		}
	}
}

// solveBody evaluates the conjunction of goals under s with chain-split
// scheduling, returning all solution substitutions.
func (e *Engine) solveBody(goals []program.Atom, s term.Subst, depth int) ([]term.Subst, error) {
	if len(goals) == 0 {
		return []term.Subst{s}, nil
	}
	if depth > e.opts.maxDepth() {
		return nil, fmt.Errorf("%w: depth %d", ErrBudget, depth)
	}
	// Pick the leftmost finitely evaluable literal (chain-split rule).
	pick := -1
	for i, g := range goals {
		if e.evaluable(g, s, goals) {
			pick = i
			break
		}
	}
	if pick < 0 {
		var parts []string
		for _, g := range goals {
			parts = append(parts, g.Resolve(s).String())
		}
		return nil, fmt.Errorf("%w: %s", ErrFlounder, strings.Join(parts, ", "))
	}
	g := goals[pick]
	rest := make([]program.Atom, 0, len(goals)-1)
	rest = append(rest, goals[:pick]...)
	rest = append(rest, goals[pick+1:]...)

	sols, err := e.solveLiteral(g, s, depth)
	if err != nil {
		return nil, err
	}
	var out []term.Subst
	for _, sol := range sols {
		sub, err := e.solveBody(rest, sol, depth)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// evaluable reports whether goal g, one of goals, is finitely
// evaluable under s.
func (e *Engine) evaluable(g program.Atom, s term.Subst, goals []program.Atom) bool {
	if g.Negated {
		// Negation-as-failure: a pure test, delayed until the
		// variables it shares with the other goals are ground.
		ground := func(v string) bool { return s.Resolve(term.NewVar(v)).Ground() }
		return adorn.NegationReady(g, adorn.Occurrences(goals...), ground) && e.evaluable(g.Positive(), s, goals)
	}
	if b := builtin.Lookup(g.Pred, g.Arity()); b != nil {
		return b.FiniteUnder(builtin.Adornment(s, g.Args))
	}
	if _, idb := e.rules[g.Key()]; !idb {
		return true // EDB relations are finite under any adornment
	}
	return e.an.Finite(g.Pred, g.Arity(), builtin.Adornment(s, g.Args))
}

// solveLiteral evaluates one literal under s.
func (e *Engine) solveLiteral(g program.Atom, s term.Subst, depth int) ([]term.Subst, error) {
	e.stats.Steps++
	if e.stats.Steps&1023 == 0 {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return nil, err
		}
	}
	if err := faultinject.Fire(faultinject.SiteTopdownStep); err != nil {
		return nil, err
	}
	if e.stats.Steps > e.opts.maxSteps() {
		return nil, fmt.Errorf("%w: %d steps", ErrBudget, e.stats.Steps)
	}
	if g.Negated {
		sols, err := e.solveLiteral(g.Positive(), s, depth)
		if err != nil {
			return nil, err
		}
		if len(sols) > 0 {
			return nil, nil
		}
		return []term.Subst{s}, nil
	}
	if b := builtin.Lookup(g.Pred, g.Arity()); b != nil {
		sols, err := b.Eval(s, g.Args)
		if err != nil {
			return nil, fmt.Errorf("topdown: %s: %w", g.Resolve(s), err)
		}
		return sols, nil
	}
	var out []term.Subst
	// EDB tuples (also covers ground facts of IDB predicates).
	if rel := e.cat.Get(g.Pred); rel != nil && rel.Arity() == g.Arity() {
		out = append(out, relation.Match(rel, g.Args, s)...)
	}
	if _, idb := e.rules[g.Key()]; idb {
		sols, err := e.call(g, s, depth)
		if err != nil {
			return nil, err
		}
		out = append(out, sols...)
	}
	return out, nil
}

// call evaluates an IDB literal through the table.
func (e *Engine) call(g program.Atom, s term.Subst, depth int) ([]term.Subst, error) {
	e.stats.Calls++
	if depth > e.stats.MaxDepthAt {
		e.stats.MaxDepthAt = depth
	}
	key, resolved := e.canonical(g, s)
	ent := e.table[key]
	if ent == nil {
		ent = &entry{seen: make(map[string]bool)}
		e.table[key] = ent
	}
	if ent.complete || e.inProgress[key] || ent.pass == e.curPass {
		if !ent.complete {
			// Serving an in-progress or already-evaluated-this-pass
			// table: its answers may still grow, so another pass is
			// required before anything depending on it is final.
			e.sawPartial = true
		} else {
			e.stats.TableHits++
		}
		return e.unifyAnswers(ent, g, s)
	}
	ent.pass = e.curPass
	e.inProgress[key] = true
	defer delete(e.inProgress, key)

	for _, r := range e.rules[g.Key()] {
		rr := r.Rename(e.renamer)
		hs := term.NewSubst()
		ok := true
		for i, ha := range rr.Head.Args {
			if !term.Unify(hs, ha, resolved[i]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		sols, err := e.solveBody(rr.Body, hs, depth+1)
		if err != nil {
			return nil, err
		}
		for _, sol := range sols {
			ans := sol.ResolveAll(rr.Head.Args)
			var kb []byte
			for _, a := range ans {
				kb = term.AppendKey(kb, a)
			}
			ak := string(kb)
			if !ent.seen[ak] {
				ent.seen[ak] = true
				ent.answers = append(ent.answers, ans)
				e.newAnswers = true
			}
		}
	}
	// The table is complete unless a partial (in-progress) table was
	// consumed anywhere this pass — conservative, but sound: the pass
	// loop re-runs until tables stop growing, and a later quiet pass
	// marks them complete.
	if !e.sawPartial {
		ent.complete = true
	}
	return e.unifyAnswers(ent, g, s)
}

func (e *Engine) unifyAnswers(ent *entry, g program.Atom, s term.Subst) ([]term.Subst, error) {
	var out []term.Subst
	for _, ans := range ent.answers {
		sol := s.Clone()
		ok := true
		renamed := false
		for i, a := range ans {
			// Answers may contain free variables (rare); rename them
			// apart before unifying. Ground answers need neither the
			// rename nor the Reset.
			if !a.Ground() {
				a = e.renamer.Rename(a)
				renamed = true
			}
			if !term.Unify(sol, g.Args[i], a) {
				ok = false
				break
			}
		}
		if renamed {
			e.renamer.Reset()
		}
		if ok {
			out = append(out, sol)
		}
	}
	return out, nil
}

// canonical builds the table key for a call: the resolved arguments
// with free variables normalized by order of first occurrence.
func (e *Engine) canonical(g program.Atom, s term.Subst) (string, []term.Term) {
	resolved := make([]term.Term, len(g.Args))
	for i, a := range g.Args {
		resolved[i] = s.Resolve(a)
	}
	names := make(map[string]string)
	var kb []byte
	kb = append(kb, g.Key()...)
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch tt := t.(type) {
		case term.Var:
			nn, ok := names[tt.Name]
			if !ok {
				nn = "$" + strconv.Itoa(len(names))
				names[tt.Name] = nn
			}
			kb = term.AppendKey(kb, term.NewVar(nn))
		case term.Comp:
			if tt.Ground() {
				kb = term.AppendKey(kb, tt)
				return
			}
			kb = append(kb, 'C')
			kb = append(kb, tt.Functor...)
			kb = append(kb, 0)
			for _, a := range tt.Args {
				walk(a)
			}
			kb = append(kb, 1)
		default:
			kb = term.AppendKey(kb, tt)
		}
	}
	for _, a := range resolved {
		walk(a)
	}
	return string(kb), resolved
}
