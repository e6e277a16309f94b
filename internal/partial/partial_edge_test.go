package partial

import (
	"fmt"
	"strings"
	"testing"

	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

func TestUpperBoundFormVariants(t *testing.T) {
	v := term.NewVar("F")
	k := term.NewInt(600)
	cases := []struct {
		atom      program.Atom
		wantOK    bool
		wantBound int64
		wantStrik bool
	}{
		{program.NewAtom("=<", v, k), true, 600, false},
		{program.NewAtom("<", v, k), true, 600, true},
		{program.NewAtom(">=", k, v), true, 600, false},
		{program.NewAtom(">", k, v), true, 600, true},
		// Not upper bounds on a variable:
		{program.NewAtom("=<", k, v), false, 0, false}, // K =< V is a lower bound
		{program.NewAtom(">=", v, k), false, 0, false}, // V >= K is a lower bound
		{program.NewAtom("=", v, k), false, 0, false},  // equality is not pushed
		{program.NewAtom("=<", v, v), false, 0, false}, // var-var
		{program.NewAtom("=<", k, k), false, 0, false}, // const-const
		{program.NewAtom("<", term.NewStr("s"), k), false, 0, false},
	}
	for _, c := range cases {
		gv, bound, strict, ok := upperBoundForm(c.atom)
		if ok != c.wantOK {
			t.Errorf("%s: ok = %v, want %v", c.atom, ok, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if gv != v || bound != c.wantBound || strict != c.wantStrik {
			t.Errorf("%s: got (%v, %d, %v)", c.atom, gv, bound, strict)
		}
	}
}

func TestNonArithmeticConstraintNotPushed(t *testing.T) {
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), L \\= [].")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc != nil {
		t.Error("disequality pushed as a bound")
	}
	if len(res.NotPushed) != 1 || !strings.Contains(res.NotPushed[0], "not an upper-bound") {
		t.Errorf("NotPushed = %v", res.NotPushed)
	}
}

func TestNoTelescopingRecurrence(t *testing.T) {
	// The constrained variable is the arrival time, which is not
	// produced by a delayed plus recurrence — not pushable.
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), AT =< 600.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc != nil {
		t.Errorf("pushed a non-telescoping constraint: %+v", res.Acc)
	}
}

func TestExitWithNegativeConstantBlocksPush(t *testing.T) {
	// An exit rule contributing a negative base makes the prune
	// unsound; the analysis must refuse.
	src := `
total(L, F) :- item(L, F).
total(L, F) :- item(L, F1), total(L2, F2), plus(F1, F2, F), next(L, L2).
base(x, -5).
item(a, 10). item(b, -5).
next(a, b).
`
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	fx := setupWith(t, src, "total/2")
	goal, cons := parseQuery(t, "?- total(a, F), F =< 100.")
	out, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if out.Acc != nil {
		t.Error("pushed despite negative exit contribution")
	}
}

func TestMultipleConstraintsKeepTightest(t *testing.T) {
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F =< 500, F =< 200.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc == nil || res.Acc.Bound != 200 {
		t.Errorf("Acc = %+v, want tightest bound 200", res.Acc)
	}
	if len(res.Pushed) != 2 {
		t.Errorf("Pushed = %v", res.Pushed)
	}
}

func TestFilterAnswersNegatedConstraint(t *testing.T) {
	goal, cons := parseQuery(t, "?- p(X), \\+ X = 2.")
	answers := [][]term.Term{{term.NewInt(1)}, {term.NewInt(2)}, {term.NewInt(3)}}
	out, err := FilterAnswers(goal, cons, answers)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("filtered = %v", out)
	}
}

func TestFilterAnswersNonBuiltinRejected(t *testing.T) {
	goal, _ := parseQuery(t, "?- p(X).")
	bad := []program.Atom{program.NewAtom("mystery", term.NewVar("X"))}
	_, err := FilterAnswers(goal, bad, [][]term.Term{{term.NewInt(1)}})
	if err == nil {
		t.Error("non-builtin constraint accepted")
	}
}

// setupWith is setup for an arbitrary predicate key.
func setupWith(t *testing.T, src, key string) *fixture {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	g := program.NewDepGraph(p)
	comp, err := chain.Compile(p, g, key)
	if err != nil {
		t.Fatal(err)
	}
	cat := relation.NewCatalog()
	for _, f := range p.Facts {
		cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
	}
	return &fixture{prog: p, an: adorn.NewAnalysis(p), comp: comp, cat: cat}
}

// TestFilterAnswersShapes checks goal shapes and constraints whose
// arguments are not ground: a repeated goal variable, a compound goal
// argument, and =/2 with anonymous variables on one side or on both,
// where the sides clash or unify.
func TestFilterAnswersShapes(t *testing.T) {
	f := func(x int64) term.Term { return term.NewComp("f", term.NewInt(x)) }
	g := term.NewComp("g", term.NewInt(1))
	for _, c := range []struct {
		query   string
		answers [][]term.Term
		want    string
	}{
		{"?- p(X, X).", [][]term.Term{{term.NewInt(1), term.NewInt(1)}, {term.NewInt(1), term.NewInt(2)}}, "[[1 1]]"},
		{"?- p(f(X)), X > 1.", [][]term.Term{{f(1)}, {f(2)}, {g}}, "[[f(2)]]"},
		{"?- p(X), \\+ X = f(_).", [][]term.Term{{f(1)}, {g}}, "[[g(1)]]"},
		{"?- p(X), \\+ f(_) = X.", [][]term.Term{{f(1)}, {g}}, "[[g(1)]]"},
		{"?- p(X), X = f(_).", [][]term.Term{{f(1)}, {g}}, "[[f(1)]]"},
		{"?- p(X), \\+ g(X, _) = f(_, 1).", [][]term.Term{{term.NewSym("a")}}, "[[a]]"},
		{"?- p(X), \\+ g(X, _) = g(_, 1).", [][]term.Term{{term.NewSym("a")}}, "[]"},
		{"?- p(X), g(X, _) = g(_, 1).", [][]term.Term{{term.NewSym("a")}}, "[[a]]"},
		{"?- p(X), g(X, _) = f(_, 1).", [][]term.Term{{term.NewSym("a")}}, "[]"},
	} {
		goal, cons := parseQuery(t, c.query)
		out, err := FilterAnswers(goal, cons, c.answers)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := fmt.Sprint(out); got != c.want {
			t.Errorf("%s: kept %s, want %s", c.query, got, c.want)
		}
	}
}
