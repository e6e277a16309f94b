package program

import (
	"fmt"

	"chainsplit/internal/term"
)

// Rectification (§2 of the paper) maps a functional logic program to a
// function-free one: every compound argument f(T1…Tk) of a head or a
// (non-builtin, non-negated) body atom is replaced by a fresh variable
// V plus a functional-predicate literal f(T1…Tk, V); list cells [H|T]
// become cons(H, T, V). Head arguments are additionally made distinct
// variables, with constants and repeats pushed into equality literals,
// yielding the paper's normalized rule shape, e.g.
//
//	append(U, V, W) :- U = [], V = W.
//	append(U, V, W) :- cons(X1, U1, U), append(U1, V, W1), cons(X1, W1, W).
//
// The transformation converts constructors into predicates, so the
// analysis of a functional recursion proceeds in the framework of a
// function-free one; the emitted cons literals are exactly the chain
// elements the chain-split analysis later decides to delay.

// rectifier carries the fresh-variable source for one rule.
type rectifier struct {
	n     int
	taken map[string]bool
	extra []Atom
}

func (rc *rectifier) fresh() term.Var {
	for {
		rc.n++
		name := fmt.Sprintf("_F%d", rc.n)
		if !rc.taken[name] {
			rc.taken[name] = true
			return term.NewVar(name)
		}
	}
}

// flatten rewrites t to a variable-or-constant, emitting defining
// literals into rc.extra. Compound terms always become fresh variables.
func (rc *rectifier) flatten(t term.Term) term.Term {
	c, ok := t.(term.Comp)
	if !ok {
		return t
	}
	args := make([]term.Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = rc.flatten(a)
	}
	v := rc.fresh()
	pred := c.Functor
	if pred == term.ConsFunctor {
		pred = "cons"
	}
	rc.extra = append(rc.extra, NewAtom(pred, append(args, term.Term(v))...))
	return v
}

// flattenHeadArg rewrites a head argument to a fresh-or-first-seen
// variable; constants and repeated variables become equality literals.
func (rc *rectifier) flattenHeadArg(t term.Term, seen map[string]bool) term.Term {
	switch tt := t.(type) {
	case term.Var:
		if seen[tt.Name] {
			v := rc.fresh()
			rc.extra = append(rc.extra, NewAtom("=", v, tt))
			return v
		}
		seen[tt.Name] = true
		return tt
	case term.Comp:
		return rc.flatten(tt)
	default: // constant
		v := rc.fresh()
		rc.extra = append(rc.extra, NewAtom("=", v, tt))
		return v
	}
}

// RectifyRule rectifies a single rule.
func RectifyRule(r Rule) Rule {
	rc := &rectifier{taken: make(map[string]bool)}
	for name := range term.VarSet(append([]term.Term{}, r.Head.Args...)...) {
		rc.taken[name] = true
	}
	for _, b := range r.Body {
		for name := range term.VarSet(b.Args...) {
			rc.taken[name] = true
		}
	}

	seen := make(map[string]bool)
	headArgs := make([]term.Term, len(r.Head.Args))
	for i, a := range r.Head.Args {
		headArgs[i] = rc.flattenHeadArg(a, seen)
	}
	head := Atom{Pred: r.Head.Pred, Args: headArgs}

	body := make([]Atom, 0, len(r.Body)+len(rc.extra))
	body = append(body, rc.extra...)
	rc.extra = nil

	for _, b := range r.Body {
		if b.IsBuiltin() || b.Negated {
			// Builtins keep their arguments; cons/plus literals are
			// already flat and comparisons take constants directly. A
			// negated literal keeps its compound arguments too: their
			// variables are local to the negation, and a defining cons
			// literal outside it would have to bind them.
			body = append(body, b)
			continue
		}
		args := make([]term.Term, len(b.Args))
		for i, a := range b.Args {
			if _, comp := a.(term.Comp); comp {
				args[i] = rc.flatten(a)
			} else {
				args[i] = a
			}
		}
		body = append(body, rc.extra...)
		rc.extra = nil
		body = append(body, Atom{Pred: b.Pred, Args: args})
	}
	return Rule{Head: head, Body: body}
}

// RectifyGoals flattens the non-ground compound arguments of a
// conjunctive query, returning the conjunction with each goal preceded
// by its defining literals: p(X, [H|T]) becomes cons(H, T, _F1),
// p(X, _F1). One rectifier serves the whole conjunction and reserves
// every goal's variables first, so no two goals are given the same
// generated variable. A ground argument, such as the list of
// isort([5,7,1], Ys), stays one term. Builtin and negated goals are
// kept unchanged.
func RectifyGoals(goals []Atom) []Atom {
	rc := &rectifier{taken: make(map[string]bool)}
	for _, g := range goals {
		for name := range term.VarSet(g.Args...) {
			rc.taken[name] = true
		}
	}
	var out []Atom
	for _, g := range goals {
		if g.IsBuiltin() || g.Negated {
			out = append(out, g)
			continue
		}
		args := make([]term.Term, len(g.Args))
		for i, a := range g.Args {
			if c, comp := a.(term.Comp); comp && !c.Ground() {
				args[i] = rc.flatten(a)
			} else {
				args[i] = a
			}
		}
		out = append(out, rc.extra...)
		rc.extra = nil
		out = append(out, Atom{Pred: g.Pred, Args: args})
	}
	return out
}

// Rectify rectifies every rule of the program. Facts with compound
// arguments (e.g. lists stored in the EDB) are left as data: relations
// store ground terms directly, so only rules need flattening.
func Rectify(p *Program) *Program {
	out := p.Clone()
	for i, r := range out.Rules {
		out.Rules[i] = RectifyRule(r)
	}
	return out
}
