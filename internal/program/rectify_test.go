package program

import (
	"strings"
	"testing"

	"chainsplit/internal/term"
)

// parseHelper avoids importing lang (which would create a cycle); rules
// are built by hand in these tests.

func TestRectifyAppendRecursive(t *testing.T) {
	// append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
	r := Rule{
		Head: NewAtom("append",
			term.Cons(v("X"), v("L1")),
			v("L2"),
			term.Cons(v("X"), v("L3"))),
		Body: []Atom{NewAtom("append", v("L1"), v("L2"), v("L3"))},
	}
	rr := RectifyRule(r)
	// Head args must all be distinct variables.
	seen := map[string]bool{}
	for _, a := range rr.Head.Args {
		vv, ok := a.(term.Var)
		if !ok {
			t.Fatalf("head arg %v is not a variable in %v", a, rr)
		}
		if seen[vv.Name] {
			t.Fatalf("head arg %v repeated in %v", a, rr)
		}
		seen[vv.Name] = true
	}
	// Body must contain two cons literals and the recursive call.
	consCount := 0
	for _, b := range rr.Body {
		if b.Pred == "cons" {
			consCount++
		}
	}
	if consCount != 2 {
		t.Errorf("rectified rule has %d cons literals, want 2: %v", consCount, rr)
	}
	// This matches the paper's (1.16):
	// append(U,V,W) :- cons(X1,U1,U), cons(X1,W1,W), append(U1,V,W1).
}

func TestRectifyAppendExit(t *testing.T) {
	// append([], L, L).  →  append(U, V, W) :- U = [], W = V. (paper 1.15)
	r := Rule{Head: NewAtom("append", term.EmptyList, v("L"), v("L"))}
	rr := RectifyRule(r)
	if len(rr.Body) != 2 {
		t.Fatalf("rectified exit rule = %v", rr)
	}
	eqConst, eqVar := 0, 0
	for _, b := range rr.Body {
		if b.Pred != "=" {
			t.Fatalf("unexpected literal %v", b)
		}
		if term.Equal(b.Args[1], term.EmptyList) {
			eqConst++
		} else if _, ok := b.Args[1].(term.Var); ok {
			eqVar++
		}
	}
	if eqConst != 1 || eqVar != 1 {
		t.Errorf("exit rule literals wrong: %v", rr)
	}
}

func TestRectifyNestedList(t *testing.T) {
	// p([X, Y | Z]) :- q(Z).   — two cons cells deep in the head.
	r := Rule{
		Head: NewAtom("p", term.Cons(v("X"), term.Cons(v("Y"), v("Z")))),
		Body: []Atom{NewAtom("q", v("Z"))},
	}
	rr := RectifyRule(r)
	consCount := 0
	for _, b := range rr.Body {
		if b.Pred == "cons" {
			consCount++
		}
	}
	if consCount != 2 {
		t.Errorf("nested list should flatten to 2 cons literals: %v", rr)
	}
	if _, ok := rr.Head.Args[0].(term.Var); !ok {
		t.Errorf("head arg not flattened: %v", rr)
	}
}

func TestRectifyFunctorBecomesPredicate(t *testing.T) {
	// p(X, f(X, g(Y))) :- q(Y).  →  f/3 and g/2 functional predicates.
	r := Rule{
		Head: NewAtom("p", v("X"), term.NewComp("f", v("X"), term.NewComp("g", v("Y")))),
		Body: []Atom{NewAtom("q", v("Y"))},
	}
	rr := RectifyRule(r)
	var fLit, gLit *Atom
	for i := range rr.Body {
		switch rr.Body[i].Pred {
		case "f":
			fLit = &rr.Body[i]
		case "g":
			gLit = &rr.Body[i]
		}
	}
	if fLit == nil || fLit.Arity() != 3 {
		t.Fatalf("f literal missing or wrong arity: %v", rr)
	}
	if gLit == nil || gLit.Arity() != 2 {
		t.Fatalf("g literal missing or wrong arity: %v", rr)
	}
	// The value var of g must feed f's second argument.
	gOut := gLit.Args[1]
	if !term.Equal(fLit.Args[1], gOut) {
		t.Errorf("g output %v not wired into f: %v", gOut, rr)
	}
}

func TestRectifyBodyAtomArgs(t *testing.T) {
	// p(Y) :- q([1|Y]).
	r := Rule{
		Head: NewAtom("p", v("Y")),
		Body: []Atom{NewAtom("q", term.Cons(term.NewInt(1), v("Y")))},
	}
	rr := RectifyRule(r)
	if len(rr.Body) != 2 || rr.Body[0].Pred != "cons" || rr.Body[1].Pred != "q" {
		t.Fatalf("rectified = %v", rr)
	}
	if _, ok := rr.Body[1].Args[0].(term.Var); !ok {
		t.Errorf("q argument not flattened: %v", rr)
	}
}

func TestRectifyKeepsBuiltinsIntact(t *testing.T) {
	r := Rule{
		Head: NewAtom("p", v("X")),
		Body: []Atom{NewAtom("<", v("X"), term.NewInt(4)), NewAtom("q", v("X"))},
	}
	rr := RectifyRule(r)
	if len(rr.Body) != 2 || rr.Body[0].Pred != "<" {
		t.Errorf("builtins modified: %v", rr)
	}
}

// TestRectifyKeepsNegatedCompounds: a negated literal's compound
// argument stays in place, in a rule and as a goal, so the variables
// inside it remain local to the negation.
func TestRectifyKeepsNegatedCompounds(t *testing.T) {
	neg := NewAtom("f", v("Y"), term.Cons(v("Z"), term.EmptyList))
	neg.Negated = true
	rr := RectifyRule(Rule{Head: NewAtom("g", v("X")), Body: []Atom{NewAtom("e", v("X"), v("Y")), neg}})
	if len(rr.Body) != 2 || !rr.Body[1].Negated || !term.Equal(rr.Body[1].Args[1], neg.Args[1]) {
		t.Errorf("negated literal rewritten: %v", rr)
	}
	if out := RectifyGoals([]Atom{neg}); len(out) != 1 || !out[0].Negated || !term.Equal(out[0].Args[1], neg.Args[1]) {
		t.Errorf("negated goal rewritten: %v", out)
	}
}

func TestRectifyConstantsInBodyKept(t *testing.T) {
	// Constants in non-builtin body atoms are selections; keep them.
	r := Rule{
		Head: NewAtom("p", v("X")),
		Body: []Atom{NewAtom("flight", v("X"), sym("ottawa"))},
	}
	rr := RectifyRule(r)
	if !term.Equal(rr.Body[0].Args[1], sym("ottawa")) {
		t.Errorf("body constant rewritten: %v", rr)
	}
}

func TestRectifyFreshVarsAvoidCollision(t *testing.T) {
	// A rule that already uses _F1 must not clash with generated vars.
	r := Rule{
		Head: NewAtom("p", term.Cons(v("_F1"), v("_F2"))),
		Body: []Atom{NewAtom("q", v("_F1"))},
	}
	rr := RectifyRule(r)
	names := map[string]int{}
	var collect func(tm term.Term)
	collect = func(tm term.Term) {
		for nm := range term.VarSet(tm) {
			names[nm]++
		}
	}
	for _, a := range rr.Head.Args {
		collect(a)
	}
	// The head var must differ from both user vars.
	hv := rr.Head.Args[0].(term.Var)
	if hv.Name == "_F1" || hv.Name == "_F2" {
		t.Errorf("fresh var collided with user var: %v", rr)
	}
}

func TestRectifyGoal(t *testing.T) {
	// A ground list stays one term: it is interned, so it unifies with
	// a rectified head in O(1).
	goal := NewAtom("isort", term.IntList(5, 7, 1), v("Ys"))
	flat, defs := rectifyGoal(goal)
	if !term.Equal(flat.Args[0], term.IntList(5, 7, 1)) || len(defs) != 0 {
		t.Errorf("ground goal arg flattened: %v %v", flat, defs)
	}
	// A non-ground list becomes a fresh variable defined by one cons
	// literal per cell.
	goal = NewAtom("isort", term.List(v("X"), term.NewInt(7), v("Z")), v("Ys"))
	flat, defs = rectifyGoal(goal)
	if _, ok := flat.Args[0].(term.Var); !ok {
		t.Fatalf("non-ground goal arg not flattened: %v %v", flat, defs)
	}
	if len(defs) != 3 {
		t.Errorf("expected 3 cons defs for a 3-element list, got %v", defs)
	}
	for _, d := range defs {
		if d.Pred != "cons" {
			t.Errorf("def %v is not cons", d)
		}
	}
}

// rectifyGoal rectifies a one-goal conjunction, splitting the result
// into the flat goal and its defining literals.
func rectifyGoal(goal Atom) (Atom, []Atom) {
	out := RectifyGoals([]Atom{goal})
	return out[len(out)-1], out[:len(out)-1]
}

// TestRectifyGoalsNamesApart: each goal of a conjunction gets its own
// generated variables, none of them a variable any goal names.
func TestRectifyGoalsNamesApart(t *testing.T) {
	out := RectifyGoals([]Atom{
		NewAtom("app", term.List(term.NewInt(0)), term.List(v("A")), v("Y")),
		NewAtom("app", term.List(term.NewInt(5)), term.List(v("B")), v("_F2")),
	})
	if len(out) != 4 || out[1].Pred != "app" || out[3].Pred != "app" {
		t.Fatalf("want cons, app, cons, app; got %v", out)
	}
	a, b := out[1].Args[1].(term.Var), out[3].Args[1].(term.Var)
	if a == b || a.Name == "_F2" || b.Name == "_F2" {
		t.Fatalf("generated variables %s and %s collide with each other or with _F2: %v", a, b, out)
	}
}

func TestRectifyProgramIdempotentOnFlat(t *testing.T) {
	p := &Program{}
	p.AddRule(Rule{
		Head: NewAtom("tc", v("X"), v("Y")),
		Body: []Atom{NewAtom("e", v("X"), v("Z")), NewAtom("tc", v("Z"), v("Y"))},
	})
	r1 := Rectify(p)
	r2 := Rectify(r1)
	if r1.String() != r2.String() {
		t.Errorf("rectify not idempotent on flat program:\n%s\nvs\n%s", r1, r2)
	}
	if !strings.Contains(r1.String(), "tc(X, Y)") {
		t.Errorf("flat rule changed: %s", r1)
	}
}
