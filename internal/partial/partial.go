// Package partial implements Algorithm 3.3 of the paper: chain-split
// partial evaluation with constraint pushing.
//
// Given a compiled functional recursion, a query and its side
// constraints (e.g. ?- travel(L, yvr, DT, ottawa, AT, F), F =< 600),
// the algorithm
//
//  1. verifies finite evaluability of the split chain (delegated to
//     the chain compiler / adornment analysis),
//  2. pushes the most selective query constants into the chain — this
//     happens through the goal adornment: a bound arrival column is
//     carried down the chain to the exit selection,
//  3. partially evaluates the delayed portion: a delayed recurrence
//     F = F1 + F2 telescopes into a running sum of the eval-portion
//     increments F1, which IS computable during the down phase even
//     though F itself is delayed, and
//  4. pushes the termination constraint (F ≤ 600) onto that running
//     sum: any context whose partial sum already exceeds the bound is
//     pruned, because the remaining contributions are provably
//     non-negative (monotonicity, checked against the EDB).
//
// The result is a counting.AccumSpec installed into the buffered
// evaluator, plus the residual constraints re-checked on final answers.
package partial

import (
	"fmt"
	"slices"

	"chainsplit/internal/adorn"
	"chainsplit/internal/builtin"
	"chainsplit/internal/chain"
	"chainsplit/internal/counting"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Result describes the outcome of constraint analysis.
type Result struct {
	// Acc is the accumulator to install, or nil when no constraint is
	// pushable.
	Acc *counting.AccumSpec
	// Residual lists every input constraint; they are all re-applied
	// to the final answers (pruning is a superset-safe optimization).
	Residual []program.Atom
	// Pushed describes the constraints that were pushed, for Explain.
	Pushed []string
	// NotPushed explains why the remaining constraints stayed
	// residual.
	NotPushed []string
}

// PushConstraints analyses the side constraints of a query against the
// compiled recursion and produces the pushable accumulator, if any.
// cat provides the EDB statistics used for the monotonicity check.
func PushConstraints(an *adorn.Analysis, comp *chain.Compiled, cat *relation.Catalog, goal program.Atom, constraints []program.Atom) (*Result, error) {
	res := &Result{Residual: constraints}
	ad := adorn.GoalAdornment(goal)
	for _, c := range constraints {
		desc := c.String()
		spec, why := tryPush(an, comp, cat, goal, ad, c)
		if spec == nil {
			res.NotPushed = append(res.NotPushed, fmt.Sprintf("%s: %s", desc, why))
			continue
		}
		// Keep the tightest pushed bound if several constrain the same
		// recurrence.
		if res.Acc == nil || spec.Bound < res.Acc.Bound || (spec.Bound == res.Acc.Bound && spec.Strict) {
			res.Acc = spec
		}
		res.Pushed = append(res.Pushed, fmt.Sprintf("%s: pushed as down-phase bound %d on the telescoped sum", desc, spec.Bound))
	}
	return res, nil
}

// tryPush attempts to push one constraint. It returns the spec or a
// reason string.
func tryPush(an *adorn.Analysis, comp *chain.Compiled, cat *relation.Catalog, goal program.Atom, ad string, c program.Atom) (*counting.AccumSpec, string) {
	if c.Negated {
		return nil, "negated constraints cannot be pushed"
	}
	// Recognize V op K / K op V with op monotone-compatible.
	v, bound, strict, ok := upperBoundForm(c)
	if !ok {
		return nil, "not an upper-bound comparison on a variable"
	}
	pos := -1
	for i, a := range goal.Args {
		if av, isVar := a.(term.Var); isVar && av == v {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, "constrained variable is not a goal argument"
	}
	spec := &counting.AccumSpec{IncrementVar: make(map[int]string), Bound: bound, Strict: strict}
	for ri, rr := range comp.RecRules {
		sp, err := chain.ComputeSplit(an, rr, ad)
		if err != nil {
			return nil, fmt.Sprintf("rule not finitely evaluable: %v", err)
		}
		incVar, why := findTelescopedIncrement(rr, sp, pos)
		if incVar == "" {
			return nil, why
		}
		if !incrementNonNegative(rr, sp, incVar, cat) {
			return nil, fmt.Sprintf("increment %s not provably non-negative", incVar)
		}
		spec.IncrementVar[ri] = incVar
	}
	if !exitBaseNonNegative(comp, cat, pos) {
		return nil, "exit contribution not provably non-negative"
	}
	return spec, ""
}

// upperBoundForm recognizes V =< K, V < K, K >= V, K > V.
func upperBoundForm(c program.Atom) (term.Var, int64, bool, bool) {
	if c.Arity() != 2 {
		return term.Var{}, 0, false, false
	}
	v1, isV1 := c.Args[0].(term.Var)
	k1, isK1 := c.Args[1].(term.Int)
	v2, isV2 := c.Args[1].(term.Var)
	k2, isK2 := c.Args[0].(term.Int)
	switch c.Pred {
	case "=<":
		if isV1 && isK1 {
			return v1, k1.V, false, true
		}
	case "<":
		if isV1 && isK1 {
			return v1, k1.V, true, true
		}
	case ">=":
		if isK2 && isV2 {
			return v2, k2.V, false, true
		}
	case ">":
		if isK2 && isV2 {
			return v2, k2.V, true, true
		}
	}
	return term.Var{}, 0, false, false
}

// findTelescopedIncrement looks in the delayed portion of the rule for
// the recurrence plus(A, B, F) (in either argument order) where F is
// the head variable at position pos and B is the recursive literal's
// variable at the same position; A is then the per-level increment the
// recurrence telescopes into.
func findTelescopedIncrement(rr chain.RecRule, sp chain.Split, pos int) (string, string) {
	headVar, ok := rr.Rule.Head.Args[pos].(term.Var)
	if !ok {
		return "", "head argument at constrained position is not a variable"
	}
	recLit := rr.Rule.Body[rr.RecIdx[0]]
	if pos >= len(recLit.Args) {
		return "", "recursive literal too short"
	}
	recVar, ok := recLit.Args[pos].(term.Var)
	if !ok {
		return "", "recursive argument at constrained position is not a variable"
	}
	for _, di := range sp.Delayed {
		lit := rr.Rule.Body[di]
		if lit.Pred != "plus" || lit.Arity() != 3 {
			continue
		}
		out, isOut := lit.Args[2].(term.Var)
		if !isOut || out != headVar {
			continue
		}
		a0, ok0 := lit.Args[0].(term.Var)
		a1, ok1 := lit.Args[1].(term.Var)
		switch {
		case ok0 && ok1 && a1 == recVar:
			return a0.Name, ""
		case ok0 && ok1 && a0 == recVar:
			return a1.Name, ""
		}
	}
	return "", "no telescoping plus(A, B, F) recurrence in the delayed portion"
}

// incrementNonNegative verifies the per-level increment variable is
// bound by the evaluated portion to a provably non-negative value: it
// must appear in an EDB literal of the evaluated portion whose column
// has a non-negative minimum in the catalog.
func incrementNonNegative(rr chain.RecRule, sp chain.Split, incVar string, cat *relation.Catalog) bool {
	for _, ei := range sp.Eval {
		lit := rr.Rule.Body[ei]
		for col, a := range lit.Args {
			if av, ok := a.(term.Var); ok && av.Name == incVar {
				if columnMin(cat, lit.Pred, lit.Arity(), col) >= 0 {
					return true
				}
			}
		}
	}
	return false
}

// exitBaseNonNegative verifies every exit contribution to the
// constrained position is non-negative: exit-rule bindings via "=" to
// a constant or via an EDB column, and ground facts of the predicate.
func exitBaseNonNegative(comp *chain.Compiled, cat *relation.Catalog, pos int) bool {
	// Ground facts of the predicate.
	if rel := cat.Get(comp.Pred); rel != nil && rel.Arity() == comp.Arity {
		ok := true
		rel.Each(func(tup relation.Tuple) bool {
			if iv, isInt := tup[pos].(term.Int); isInt && iv.V < 0 {
				ok = false
			}
			return ok
		})
		if !ok {
			return false
		}
	}
	for _, er := range comp.ExitRules {
		hv, ok := er.Head.Args[pos].(term.Var)
		if !ok {
			// A constant head argument: check it directly.
			if iv, isInt := er.Head.Args[pos].(term.Int); isInt {
				if iv.V < 0 {
					return false
				}
				continue
			}
			// Non-integer exit value (symbol/list): the constraint
			// cannot concern it; treat as irrelevant.
			continue
		}
		if !exitVarNonNegative(er, hv, cat) {
			return false
		}
	}
	return true
}

func exitVarNonNegative(er program.Rule, hv term.Var, cat *relation.Catalog) bool {
	for _, lit := range er.Body {
		switch {
		case lit.Pred == "=" && lit.Arity() == 2:
			if av, ok := lit.Args[0].(term.Var); ok && av == hv {
				if iv, ok := lit.Args[1].(term.Int); ok {
					return iv.V >= 0
				}
			}
			if av, ok := lit.Args[1].(term.Var); ok && av == hv {
				if iv, ok := lit.Args[0].(term.Int); ok {
					return iv.V >= 0
				}
			}
		case !lit.IsBuiltin():
			for col, a := range lit.Args {
				if av, ok := a.(term.Var); ok && av == hv {
					if columnMin(cat, lit.Pred, lit.Arity(), col) >= 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// columnMin returns the minimum integer value in the column, or a
// negative sentinel when the relation is unknown or the column holds
// non-integers (conservatively failing the monotonicity check).
func columnMin(cat *relation.Catalog, pred string, arity, col int) int64 {
	rel := cat.Get(pred)
	if rel == nil || rel.Arity() != arity || rel.Len() == 0 {
		return -1
	}
	min := int64(1<<62 - 1)
	bad := false
	rel.Each(func(tup relation.Tuple) bool {
		iv, ok := tup[col].(term.Int)
		if !ok {
			bad = true
			return false
		}
		if iv.V < min {
			min = iv.V
		}
		return true
	})
	if bad {
		return -1
	}
	return min
}

// FilterAnswers keeps the answer tuples that match the goal and
// satisfy the residual constraints: for each answer, which is ground,
// the goal's variables take the answer's values, and each constraint
// must have a solution on its arguments under them that matches them.
// A goal whose arguments are distinct variables or ground terms matches
// every tuple an engine answered it with, so without constraints the
// answers come back unchanged.
func FilterAnswers(goal program.Atom, constraints []program.Atom, answers [][]term.Term) ([][]term.Term, error) {
	if len(constraints) == 0 && !shaped(goal) {
		return answers, nil
	}
	var out [][]term.Term
next:
	for _, ans := range answers {
		vals := make(map[string]term.Term)
		if !match(goal.Args, ans, vals) {
			continue
		}
		for _, c := range constraints {
			b := builtin.Lookup(c.Pred, c.Arity())
			if b == nil {
				return nil, fmt.Errorf("partial: residual constraint %s is not a builtin", c)
			}
			args := substitute(c.Args, vals)
			sols, err := b.Solve(args)
			if err != nil {
				return nil, fmt.Errorf("partial: residual constraint %s: %w", program.Atom{Pred: c.Pred, Args: args, Negated: c.Negated}, err)
			}
			if slices.ContainsFunc(sols, func(sol []term.Term) bool { return match(args, sol, map[string]term.Term{}) }) == c.Negated {
				continue next
			}
		}
		out = append(out, ans)
	}
	return out, nil
}

// match matches each term of ps one-way against its term of vs, a
// ground term or an instance of it that a builtin answered, binding the
// variables of ps in vals; a bound variable must match its value.
func match(ps, vs []term.Term, vals map[string]term.Term) bool {
	for i, p := range ps {
		var ok bool
		switch p := p.(type) {
		case term.Var:
			old, bound := vals[p.Name]
			ok = !bound || term.Equal(old, vs[i])
			vals[p.Name] = vs[i]
		case term.Comp:
			v, isComp := vs[i].(term.Comp)
			ok = term.Equal(p, vs[i]) || isComp && !p.Ground() && v.Functor == p.Functor && len(v.Args) == len(p.Args) && match(p.Args, v.Args, vals)
		default:
			ok = term.Equal(p, vs[i])
		}
		if !ok {
			return false
		}
	}
	return true
}

// substitute returns ts with the variables that vals binds replaced by
// their values.
func substitute(ts []term.Term, vals map[string]term.Term) []term.Term {
	out := make([]term.Term, len(ts))
	for i, t := range ts {
		switch tt := t.(type) {
		case term.Var:
			if v, ok := vals[tt.Name]; ok {
				t = v
			}
		case term.Comp:
			if !tt.Ground() {
				t = term.NewComp(tt.Functor, substitute(tt.Args, vals)...)
			}
		}
		out[i] = t
	}
	return out
}

// shaped reports whether the goal constrains its answers beyond its
// ground arguments: a variable occurs twice, or an argument is a
// compound with a variable inside.
func shaped(goal program.Atom) bool {
	seen := make(map[string]bool, len(goal.Args))
	for _, a := range goal.Args {
		v, ok := a.(term.Var)
		if !ok {
			if !a.Ground() {
				return true
			}
			continue
		}
		if seen[v.Name] {
			return true
		}
		seen[v.Name] = true
	}
	return false
}
