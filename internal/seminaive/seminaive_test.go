package seminaive

import (
	"errors"
	"fmt"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

func run(t *testing.T, src string, opts Options) (*relation.Catalog, *Stats, error) {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	cat := relation.NewCatalog()
	stats, err := Eval(p, cat, opts)
	return cat, stats, err
}

func TestTransitiveClosure(t *testing.T) {
	cat, stats, err := run(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, d).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := cat.Get("tc")
	if tc.Len() != 6 {
		t.Errorf("tc has %d tuples, want 6: %v", tc.Len(), tc)
	}
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}
	for _, w := range want {
		tup := relation.Tuple{term.NewSym(w[0]), term.NewSym(w[1])}
		if !tc.Contains(tup) {
			t.Errorf("missing %v", tup)
		}
	}
	if stats.DerivedTuples != 6 {
		t.Errorf("DerivedTuples = %d", stats.DerivedTuples)
	}
}

func TestTransitiveClosureCyclic(t *testing.T) {
	cat, _, err := run(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, a).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("tc").Len(); got != 9 {
		t.Errorf("cyclic tc = %d tuples, want 9", got)
	}
}

func TestSameGeneration(t *testing.T) {
	cat, _, err := run(t, `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
parent(c1, p1). parent(c2, p2).
parent(p1, g1). parent(p2, g1).
sibling(p1, p2). sibling(g1, g1).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sg := cat.Get("sg")
	// siblings: (p1,p2), (g1,g1); derived: (c1,c2) via p1/p2 siblings;
	// (p1,p2) again via g1 sibling; plus (p1,p1),(p2,p2),(c1,c1),... from (g1,g1):
	// parent(p1,g1),parent(p2,g1),sg(g1,g1) → (p1,p1),(p1,p2),(p2,p1),(p2,p2)
	// then (c1,c1),(c1,c2),(c2,c1),(c2,c2).
	wants := [][2]string{
		{"p1", "p2"}, {"g1", "g1"}, {"c1", "c2"}, {"p1", "p1"}, {"p2", "p2"},
		{"p2", "p1"}, {"c1", "c1"}, {"c2", "c2"}, {"c2", "c1"},
	}
	for _, w := range wants {
		if !sg.Contains(relation.Tuple{term.NewSym(w[0]), term.NewSym(w[1])}) {
			t.Errorf("missing sg(%s,%s)", w[0], w[1])
		}
	}
	if sg.Len() != len(wants) {
		t.Errorf("sg = %d tuples, want %d: %v", sg.Len(), len(wants), sg.Sorted())
	}
}

func TestBuiltinsInBody(t *testing.T) {
	cat, _, err := run(t, `
big(X) :- n(X), X > 2.
sum(X, Y) :- n(X), plus(X, 10, Y).
n(1). n(2). n(3). n(4).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("big").Len(); got != 2 {
		t.Errorf("big = %d, want 2", got)
	}
	if !cat.Get("sum").Contains(relation.Tuple{term.NewInt(3), term.NewInt(13)}) {
		t.Errorf("sum missing (3,13): %v", cat.Get("sum"))
	}
}

func TestBuiltinReordering(t *testing.T) {
	// The comparison appears before its inputs are bound; the
	// scheduler must move it after n(X).
	cat, _, err := run(t, `
big(X) :- X > 2, n(X).
n(1). n(3).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("big").Len(); got != 1 {
		t.Errorf("big = %d, want 1", got)
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	_, _, err := run(t, `
p(X, Y) :- n(X), plus(Y, Y, Z).
n(1).
`, Options{})
	if !errors.Is(err, ErrUnsafe) {
		t.Errorf("err = %v, want ErrUnsafe", err)
	}
}

func TestNongroundHeadRejected(t *testing.T) {
	_, _, err := run(t, `
p(X, Y) :- n(X).
n(1).
`, Options{})
	if !errors.Is(err, ErrUnsafe) {
		t.Errorf("err = %v, want ErrUnsafe", err)
	}
}

func TestIterationBudget(t *testing.T) {
	// counter(N) :- counter(M), plus(M, 1, N): derives 0,1,2,… forever.
	_, _, err := run(t, `
counter(0).
counter(N) :- counter(M), plus(M, 1, N).
`, Options{MaxIterations: 50})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestTupleBudget(t *testing.T) {
	_, _, err := run(t, `
counter(0).
counter(N) :- counter(M), plus(M, 1, N).
`, Options{MaxTuples: 100})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestStratification(t *testing.T) {
	// q depends on tc; both must be fully evaluated in order.
	cat, _, err := run(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
q(X) :- tc(a, X).
e(a, b). e(b, c).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("q").Len(); got != 2 {
		t.Errorf("q = %d, want 2 (b and c)", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	cat, _, err := run(t, `
even(z).
even(X) :- s(X, Y), odd(Y).
odd(X) :- s(X, Y), even(Y).
s(one, z). s(two, one). s(three, two). s(four, three).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	even, odd := cat.Get("even"), cat.Get("odd")
	for _, w := range []string{"z", "two", "four"} {
		if !even.Contains(relation.Tuple{term.NewSym(w)}) {
			t.Errorf("even missing %s", w)
		}
	}
	for _, w := range []string{"one", "three"} {
		if !odd.Contains(relation.Tuple{term.NewSym(w)}) {
			t.Errorf("odd missing %s", w)
		}
	}
	if even.Len() != 3 || odd.Len() != 2 {
		t.Errorf("even=%d odd=%d", even.Len(), odd.Len())
	}
}

func TestListsBottomUp(t *testing.T) {
	// Functional facts: lists stored in the EDB and decomposed
	// bottom-up via cons in a safe direction.
	cat, _, err := run(t, `
head(L, H) :- lst(L), cons(H, T, L).
lst([1, 2, 3]).
lst([7]).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := cat.Get("head")
	if h.Len() != 2 {
		t.Fatalf("head = %v", h)
	}
	if !h.Contains(relation.Tuple{term.IntList(1, 2, 3), term.NewInt(1)}) {
		t.Errorf("missing head([1,2,3], 1)")
	}
}

func TestTraceDeltas(t *testing.T) {
	_, stats, err := run(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, d). e(d, e2).
`, Options{Tracer: obsv.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Deltas) == 0 {
		t.Fatal("no deltas recorded")
	}
	// Iteration 0 derives the base edges (4), then 3, 2, 1, 0.
	var sizes []int
	for _, d := range stats.Deltas {
		if n, ok := d.DeltaSizes["tc"]; ok {
			sizes = append(sizes, n)
		}
	}
	want := []int{4, 3, 2, 1, 0}
	if fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("delta profile = %v, want %v", sizes, want)
	}
}

func TestSemiNaiveNoRederivation(t *testing.T) {
	// On a long chain, the number of Matches should stay linear-ish in
	// the output, far below the naive quadratic blowup. Chain of 30:
	// tc = 30*31/2 = 465 tuples.
	var src string
	for i := 0; i < 30; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
	}
	src += "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	cat, stats, err := run(t, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("tc").Len(); got != 465 {
		t.Fatalf("tc = %d, want 465", got)
	}
	// naive would re-derive every tuple every iteration: >> 30*465.
	if stats.Matches > 4000 {
		t.Errorf("Matches = %d, semi-naive should be ~2x output size", stats.Matches)
	}
}

func TestFactsViaCatalogAndProgram(t *testing.T) {
	// Facts may be preloaded in the catalog rather than the program.
	res, err := lang.Parse(`tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	cat := relation.NewCatalog()
	e := cat.Ensure("e", 2)
	e.Insert(relation.Tuple{term.NewSym("a"), term.NewSym("b")})
	e.Insert(relation.Tuple{term.NewSym("b"), term.NewSym("c")})
	if _, err := Eval(p, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("tc").Len(); got != 3 {
		t.Errorf("tc = %d, want 3", got)
	}
}

func TestGoalConeRestriction(t *testing.T) {
	src := `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c).
other(X, Y) :- f(X, Y).
other(X, Y) :- f(X, Z), other(Z, Y).
f(p, q). f(q, r).
`
	// Restricted to tc's cone, the other recursion is not evaluated.
	cat, _, err := run(t, src, Options{Goal: "tc/2"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("tc").Len(); got != 3 {
		t.Errorf("tc = %d tuples, want 3", got)
	}
	if rel := cat.Get("other"); rel != nil && rel.Len() != 0 {
		t.Errorf("other evaluated outside the goal cone: %d tuples", rel.Len())
	}
	// An unknown goal evaluates nothing beyond the EDB.
	cat2, _, err := run(t, src, Options{Goal: "nosuch/1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat2.Get("tc").Len(); got != 0 {
		t.Errorf("tc evaluated under an unrelated goal: %d tuples", got)
	}
	// Empty goal keeps the whole-program behavior.
	cat3, _, err := run(t, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cat3.Get("tc").Len() != 3 || cat3.Get("other").Len() != 3 {
		t.Error("whole-program evaluation changed")
	}
}
