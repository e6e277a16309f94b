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

// body is one conjunction the engine schedules — a rule body or a
// query — with its variables, in the fixed order pick's memo key reads
// them, and the memo of its chain-split picks.
type body struct {
	atoms []program.Atom
	vars  []term.Var
	picks map[string]int
}

func newBody(atoms []program.Atom) *body {
	var args []term.Term
	for _, a := range atoms {
		args = append(args, a.Args...)
	}
	b := &body{atoms: atoms, picks: make(map[string]int)}
	for v := range term.VarSet(args...) {
		b.vars = append(b.vars, term.NewVar(v))
	}
	return b
}

// rule is a stored rule. It runs unrenamed: call unifies its head with
// the canonical call arguments in a fresh substitution.
type rule struct {
	head program.Atom
	body *body
}

// Engine evaluates goals against one program and catalog.
type Engine struct {
	an  *adorn.Analysis
	cat *relation.Catalog
	// rules indexes the program's rules by head key, in program
	// order; its key set is the IDB.
	rules map[string][]rule
	opts  Options
	stats Stats
	// passLimit is maxPasses; tests lower it to reach the budget.
	passLimit int

	table      map[string]*entry
	inProgress map[string]bool
	renamer    *term.Renamer
	pickKey    []byte // scratch for pick's memo key

	// sawPartial reports that the current pass consumed a table that
	// may still grow; derived counts the answers added to any table.
	sawPartial bool
	derived    int
	curPass    int
}

// New prepares an engine over the rectified program and EDB catalog.
// Ground program facts are loaded into the catalog.
func New(prog *program.Program, cat *relation.Catalog, opts Options) *Engine {
	e := &Engine{
		an:         adorn.NewAnalysis(prog),
		cat:        cat,
		rules:      make(map[string][]rule),
		opts:       opts,
		passLimit:  maxPasses,
		table:      make(map[string]*entry),
		inProgress: make(map[string]bool),
		renamer:    term.NewRenamer("_T"),
	}
	for _, r := range prog.Rules {
		k := r.Head.Key()
		e.rules[k] = append(e.rules[k], rule{head: r.Head, body: newBody(r.Body)})
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

// Analysis returns the finiteness analysis of the engine's program.
func (e *Engine) Analysis() *adorn.Analysis { return e.an }

// SolveConjunction evaluates a conjunctive query with chain-split
// scheduling across the whole conjunction, returning all solution
// substitutions. Non-ground compound goal arguments are flattened
// first (program.RectifyGoals); a ground list stays one term, which
// unifies with a rule head in O(1).
func (e *Engine) SolveConjunction(goals []program.Atom) ([]term.Subst, error) {
	atoms := program.RectifyGoals(goals)
	q, solved := newBody(atoms), make([]byte, len(atoms))
	if err := e.an.Graph().CheckStratified(); err != nil {
		return nil, fmt.Errorf("topdown: %v", err)
	}
	return e.fixpoint(true, func() ([]term.Subst, error) {
		return e.solveBody(q, solved, len(atoms), term.NewSubst(), 0)
	})
}

// SolveUnder evaluates one literal under an existing substitution,
// running the tabling fixpoint to completion. It is the composition
// hook the buffered evaluator solves every literal of a chain portion
// through: builtins, EDB lookups, negations and nested IDB subgoals
// (e.g. isort's delayed insert call).
func (e *Engine) SolveUnder(g program.Atom, s term.Subst) ([]term.Subst, error) {
	return e.fixpoint(false, func() ([]term.Subst, error) {
		return e.solveLiteral(g, s, 0)
	})
}

// fixpoint is the QSQR pass loop: it runs solve, with tables retained,
// until a pass consumes no partial table or derives no new answer, and
// returns that pass's solutions. Partial tables grow monotonically
// toward the fixpoint. counted passes enter Stats.Passes and the
// tracer's PhaseRound events.
func (e *Engine) fixpoint(counted bool, solve func() ([]term.Subst, error)) ([]term.Subst, error) {
	for pass := 0; ; pass++ {
		if err := everr.Check(e.opts.Ctx); err != nil {
			return nil, err
		}
		if pass >= e.passLimit {
			return nil, fmt.Errorf("%w: %d fixpoint passes", ErrBudget, pass)
		}
		if counted {
			e.stats.Passes++
			e.opts.Tracer.Point(obsv.PhaseRound, "qsqr", int64(e.stats.Passes), int64(e.stats.Steps))
		}
		e.curPass++
		e.sawPartial = false
		before := e.derived
		sols, err := solve()
		if err != nil || !e.sawPartial || e.derived == before {
			return sols, err
		}
	}
}

// solveBody evaluates the left literals of b not marked 1 in solved
// under s with chain-split scheduling, returning all solution
// substitutions. Each activation of a body owns its solved slice; a
// literal is marked while the solutions it produced are extended, and
// an error abandons the activation.
func (e *Engine) solveBody(b *body, solved []byte, left int, s term.Subst, depth int) ([]term.Subst, error) {
	if left == 0 {
		return []term.Subst{s}, nil
	}
	if depth > e.opts.maxDepth() {
		return nil, fmt.Errorf("%w: depth %d", ErrBudget, depth)
	}
	pick := e.pick(b, solved, s)
	if pick < 0 {
		var parts []string
		for i, g := range b.atoms {
			if solved[i] == 0 {
				parts = append(parts, g.Resolve(s).String())
			}
		}
		return nil, fmt.Errorf("%w: %s", ErrFlounder, strings.Join(parts, ", "))
	}
	sols, err := e.solveLiteral(b.atoms[pick], s, depth)
	if err != nil {
		return nil, err
	}
	solved[pick] = 1
	var out []term.Subst
	for _, sol := range sols {
		sub, err := e.solveBody(b, solved, left-1, sol, depth)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	solved[pick] = 0
	return out, nil
}

// pick returns the index of the leftmost unsolved literal of b that may
// run under s (adorn.Ready: the chain-split rule), or -1. Readiness
// reads only which variables are ground, so the pick is memoized on the
// solved set plus the groundness of each of b's variables.
func (e *Engine) pick(b *body, solved []byte, s term.Subst) int {
	key := append(e.pickKey[:0], solved...)
	for _, v := range b.vars {
		key = append(key, 'f')
		if ground(s, v) {
			key[len(key)-1] = 'b'
		}
	}
	e.pickKey = key
	if p, ok := b.picks[string(key)]; ok {
		return p
	}
	bound := make(map[string]bool)
	for k, v := range b.vars {
		if key[len(solved)+k] == 'b' {
			bound[v.Name] = true
		}
	}
	var rest []program.Atom
	var at []int
	for i, g := range b.atoms {
		if solved[i] == 0 {
			rest, at = append(rest, g), append(at, i)
		}
	}
	var occ map[string]int // over the unsolved goals, built at the first negation
	p := -1
	for j, g := range rest {
		if g.Negated && occ == nil {
			occ = adorn.Occurrences(rest...)
		}
		if adorn.Ready(g, bound, occ, e.an.Finite) {
			p = at[j]
			break
		}
	}
	b.picks[string(key)] = p
	return p
}

// ground reports whether t is ground under s. Unlike
// s.Resolve(t).Ground() it builds no term, so it interns none.
func ground(s term.Subst, t term.Term) bool {
	switch t := s.Walk(t).(type) {
	case term.Var:
		return false
	case term.Comp:
		if !t.Ground() {
			for _, a := range t.Args {
				if !ground(s, a) {
					return false
				}
			}
		}
	}
	return true
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
		// A found answer refutes the negation for good, but a failure
		// read off a table that may still grow is final only once that
		// table is: then the positive goal runs to its own fixpoint.
		// Stratification keeps the tables in progress out of its cone.
		saw := e.sawPartial
		e.sawPartial = false
		pos := g.Positive()
		sols, err := e.solveLiteral(pos, s, depth)
		if err == nil && len(sols) == 0 && e.sawPartial {
			sols, err = e.fixpoint(false, func() ([]term.Subst, error) {
				return e.solveLiteral(pos, s, depth)
			})
		}
		e.sawPartial = saw
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
	key, args := e.canonical(g, s)
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
		hs := term.NewSubst()
		ok := true
		for i, ha := range r.head.Args {
			if !term.Unify(hs, ha, args[i]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		n := len(r.body.atoms)
		sols, err := e.solveBody(r.body, make([]byte, n), n, hs, depth+1)
		if err != nil {
			return nil, err
		}
		for _, sol := range sols {
			ans := sol.ResolveAll(r.head.Args)
			var kb []byte
			for _, a := range ans {
				kb = term.AppendKey(kb, a)
			}
			ak := string(kb)
			if !ent.seen[ak] {
				ent.seen[ak] = true
				ent.answers = append(ent.answers, ans)
				e.derived++
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

// canonVars holds the first canonical variables, $0 to $63, built once
// and only read afterwards, so concurrent engines share them and a call
// allocates no name; equal names are then pointer-equal as well, so
// comparing them stops at the pointer.
var canonVars = func() []term.Var {
	vs := make([]term.Var, 64)
	for k := range vs {
		vs[k] = term.NewVar("$" + strconv.Itoa(k))
	}
	return vs
}()

// canonVar returns the canonical variable $k.
func canonVar(k int) term.Var {
	if k < len(canonVars) {
		return canonVars[k]
	}
	return term.NewVar("$" + strconv.Itoa(k))
}

// canonical returns the table key for a call and its canonical
// arguments: the arguments resolved under s, with free variables
// renamed $0, $1, … by order of first occurrence. A rule runs against
// the canonical arguments, so neither the caller's variables nor its
// substitution reach the callee.
func (e *Engine) canonical(g program.Atom, s term.Subst) (string, []term.Term) {
	names := make(map[string]term.Var)
	var canon func(t term.Term) term.Term
	canon = func(t term.Term) term.Term {
		switch tt := s.Walk(t).(type) {
		case term.Var:
			nv, ok := names[tt.Name]
			if !ok {
				nv = canonVar(len(names))
				names[tt.Name] = nv
			}
			return nv
		case term.Comp:
			if tt.Ground() {
				return tt
			}
			args := make([]term.Term, len(tt.Args))
			for i, a := range tt.Args {
				args[i] = canon(a)
			}
			return term.NewComp(tt.Functor, args...)
		default:
			return tt
		}
	}
	args := make([]term.Term, len(g.Args))
	kb := []byte(g.Key())
	for i, a := range g.Args {
		args[i] = canon(a)
		kb = term.AppendKey(kb, args[i])
	}
	return string(kb), args
}
