package topdown

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

func TestMaxDepthBudget(t *testing.T) {
	e := engine(t, `
down(0).
down(N) :- N > 0, minus(N, 1, M), down(M).
`, Options{MaxDepth: 5})
	q, _ := lang.ParseQuery("?- down(100).")
	_, err := solveGoal(e, q.Goals[0])
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget (depth)", err)
	}
}

func TestFlounderMessageNamesGoals(t *testing.T) {
	e := engine(t, `p(X, Y) :- plus(X, 1, Y).`, Options{})
	q, _ := lang.ParseQuery("?- p(X, Y).")
	_, err := solveGoal(e, q.Goals[0])
	if !errors.Is(err, ErrFlounder) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "p(X, Y)") {
		t.Errorf("flounder message does not name the stuck goal: %v", err)
	}
}

func TestNegationDelayedUntilBound(t *testing.T) {
	// \+ q(X) appears before the producer of X; the scheduler must run
	// n(X) first, then the negation.
	e := engine(t, `
p(X) :- \+ q(X), n(X).
n(1). n(2). q(2).
`, Options{})
	q, _ := lang.ParseQuery("?- p(X).")
	ans, err := solveGoal(e, q.Goals[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !term.Equal(ans[0][0], term.NewInt(1)) {
		t.Errorf("answers = %v", ans)
	}
}

func TestNegationNeverBoundFlounders(t *testing.T) {
	e := engine(t, `
p(X) :- \+ q(X).
q(1).
`, Options{})
	q, _ := lang.ParseQuery("?- p(X).")
	_, err := solveGoal(e, q.Goals[0])
	if !errors.Is(err, ErrFlounder) {
		t.Errorf("err = %v, want ErrFlounder (X never bound)", err)
	}
}

func TestUnstratifiedRejectedTopdown(t *testing.T) {
	e := engine(t, `
w(X) :- m(X, Y), \+ w(Y).
m(a, b).
`, Options{})
	q, _ := lang.ParseQuery("?- w(a).")
	_, err := solveGoal(e, q.Goals[0])
	if err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Errorf("err = %v", err)
	}
}

func TestSolveUnderComposition(t *testing.T) {
	res, _ := lang.Parse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c).
`)
	p := program.Rectify(res.Program)
	e := New(p, relation.NewCatalog(), Options{})
	s := term.NewSubst()
	s.Bind(term.NewVar("Start"), term.NewSym("a"))
	sols, err := e.SolveUnder(program.NewAtom("anc", term.NewVar("Start"), term.NewVar("Y")), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Errorf("SolveUnder gave %d solutions", len(sols))
	}
	for _, sol := range sols {
		if !sol.Resolve(term.NewVar("Y")).Ground() {
			t.Errorf("unbound Y in %v", sol)
		}
	}
}

func TestMaxPassesBudget(t *testing.T) {
	e := engine(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
e(a, b). e(b, c). e(c, d).
`, Options{})
	e.passLimit = 1
	q, _ := lang.ParseQuery("?- tc(a, Y).")
	_, err := solveGoal(e, q.Goals[0])
	// Left recursion needs multiple passes; one pass must trip the
	// budget rather than return silently-incomplete answers.
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget (passes)", err)
	}
}

// TestFrameEdgeCases covers the slot frames' rarer paths: a non-ground
// answer read into a frame with no slots of its own, a body wider than
// 64 literals and 64 variables, and SolveUnder binding a variable that
// occurs only inside the substitution's values.
func TestFrameEdgeCases(t *testing.T) {
	e := engine(t, boxSrc, Options{})
	if got := solve(t, e, "?- boxed(1, box(1, 7))."); len(got) != 1 {
		t.Errorf("boxed(1, box(1, 7)) = %v, want one solution", got)
	}

	var body []string
	for i := 0; i < 70; i++ {
		body = append(body, fmt.Sprintf("e(X%d, X%d)", i, i+1))
	}
	e = engine(t, "e(a, b). e(b, a).\nwalk(X0, X70) :- "+strings.Join(body, ", ")+".", Options{})
	if got := fmt.Sprint(solve(t, e, "?- walk(a, Y).")); got != "[[a a]]" {
		t.Errorf("walk(a, Y) = %s, want [[a a]]", got)
	}

	e = engine(t, "", Options{})
	s := term.NewSubst()
	s.Bind(term.NewVar("X"), term.NewComp("f", term.NewVar("Z")))
	sols, err := e.SolveUnder(program.NewAtom("=", term.NewVar("X"), term.NewComp("f", term.NewInt(1))), s)
	if err != nil || len(sols) != 1 {
		t.Fatalf("SolveUnder: %v, %v", sols, err)
	}
	if got := sols[0].Resolve(term.NewVar("Z")); !term.Equal(got, term.NewInt(1)) {
		t.Errorf("Z = %v, want 1", got)
	}
}
