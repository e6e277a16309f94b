package topdown

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
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

// TestDeepRecursionEndsInBudget runs ?- down(1000000). with the default
// options in a child process, so that a fatal stack overflow, which no
// recover catches, fails this test instead of ending go test: the depth
// bound must stop the recursion first, with ErrBudget.
func TestDeepRecursionEndsInBudget(t *testing.T) {
	if os.Getenv("TOPDOWN_DEEP_CHILD") == "1" {
		e := engine(t, `
down(0).
down(N) :- N > 0, minus(N, 1, M), down(M).
`, Options{})
		q, _ := lang.ParseQuery("?- down(1000000).")
		_, err := solveGoal(e, q.Goals[0])
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		fmt.Println("child: ErrBudget")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeepRecursionEndsInBudget$", "-test.count=1")
	cmd.Env = append(os.Environ(), "TOPDOWN_DEEP_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "child: ErrBudget") {
		t.Fatalf("child: %v\n%s", err, tail(string(out), 2000))
	}
}

// tail returns at most the last n bytes of s.
func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
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

// compileRule compiles the one rule of src on e.
func compileRule(t *testing.T, e *Engine, src string) *Rule {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil || len(res.Program.Rules) != 1 {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e.Compile(program.RectifyRule(res.Program.Rules[0]))
}

// TestSolveComposition runs a rule in two parts, as the buffered
// evaluator does: a recursive IDB call under the head's binding, then,
// on each frame it hands back, the rest of the body once a head
// argument is unified with a value.
func TestSolveComposition(t *testing.T) {
	e := engine(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c). par(c, d).
`, Options{})
	r := compileRule(t, e, "p(S, Y, Z) :- anc(S, Y), par(Y, Z).")
	frames, err := e.Solve(r, nil, r.Head()[:1], []term.Term{term.NewSym("a")}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var ys []string
	for _, f := range frames {
		ys = append(ys, Resolve(f, r.Head()[1]).String())
	}
	if got := strings.Join(ys, " "); got != "b c d" {
		t.Fatalf("anc(a, Y) gave Y = %s, want b c d", got)
	}
	var zs []string
	for _, f := range frames {
		sols, err := e.Solve(r, f, r.Head()[2:], []term.Term{term.NewSym("d")}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range sols {
			zs = append(zs, Resolve(g, r.Head()[1]).String()+"→"+Resolve(g, r.Head()[2]).String())
		}
	}
	if got := strings.Join(zs, " "); got != "c→d" {
		t.Errorf("par(Y, Z) with Z = d on the frames gave %s, want c→d", got)
	}
	if r.Var("Z") == nil || r.Var("W") != nil {
		t.Errorf("Var(Z) = %v, Var(W) = %v", r.Var("Z"), r.Var("W"))
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
// 64 literals and 64 variables, and Solve loading a frame longer than
// its rule's slots, whose binding holds a slot past them.
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
	r := compileRule(t, e, "t(X, B) :- pairbox(X, B), B = box(1, 7).")
	frames, err := e.Solve(r, nil, r.Head()[:1], []term.Term{term.NewInt(1)}, []int{0})
	if err != nil || len(frames) != 1 || len(frames[0]) != 3 {
		t.Fatalf("pairbox(1, B) gave frames %v, %v; want one of 3 slots", frames, err)
	}
	frames, err = e.Solve(r, frames[0], nil, nil, []int{1})
	if err != nil || len(frames) != 1 {
		t.Fatalf("B = box(1, 7) gave frames %v, %v", frames, err)
	}
	if got := Resolve(frames[0], r.Head()[1]); got.String() != "box(1, 7)" || !term.Equal(frames[0][2], term.NewInt(7)) {
		t.Errorf("B = %v and slot 2 = %v, want box(1, 7) and 7", got, frames[0][2])
	}
}
