package magic

import (
	"errors"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/seminaive"
)

// Regression for a soundness bug found by the cross-engine fuzzer: in
// the supplementary rewrite, a split (residual) literal's variables
// were dropped from the supplementary chain when its SIP position
// preceded later IDB literals, detaching its join condition in the
// answer rule and admitting spurious answers — here (c0,c4)/(c0,c5)
// appeared because e2(Y, W) lost its Y-join with p@fb(Y, Z).
func TestRegressionResidualVarsSurviveSupChain(t *testing.T) {
	const src = `
e2(c4, c5).
e2(c2, c4).
e2(c0, c0).
e2(c0, c3).
e2(c3, c3).
p(Z, W) :- p(X, X), e2(Y, W), p(Y, Z).
p(Y, X) :- e2(Y, X).
`
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- p(c0, Y).")
	goal := goalQ.Goals[0]

	want := map[string]bool{"(c0, c0)": true, "(c0, c3)": true}
	for _, sup := range []bool{false, true} {
		for _, pol := range []Policy{PolicyFollow, PolicySplit, PolicyCost} {
			cat := catalogOf(p)
			rw, err := Rewrite(p, goal, withModel(Config{Policy: pol, Supplementary: sup}, cat))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seminaive.Eval(rw.Program, cat, seminaive.Options{}); err != nil {
				t.Fatalf("%v sup=%v: %v", pol, sup, err)
			}
			ans := Answers(cat, rw, goal)
			if ans.Len() != len(want) {
				t.Fatalf("%v sup=%v: answers %v, want exactly %v\nprogram:\n%s",
					pol, sup, ans.Sorted(), want, rw.Program)
			}
			for _, tup := range ans.Sorted() {
				if !want[tup.String()] {
					t.Errorf("%v sup=%v: spurious answer %v", pol, sup, tup)
				}
			}
		}
	}
}

// A split connection binds nothing, so an IDB literal that needed its
// bindings may be placed in no finite order: the rewrite refuses the
// rule instead of reading the literal's unadorned relation.
func TestUnplaceableIDBLiteralIsRefused(t *testing.T) {
	const src = `
e(a, 1). e(a, 2). e(a, 3). e(a, 4). e(a, 5).
r(X, L) :- e(X, Y), app([Y], [], L).
app([], L, L).
app([X|L1], L2, [X|L3]) :- app(L1, L2, L3).
`
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	q, _ := lang.ParseQuery("?- r(a, L).")
	cat := catalogOf(p)
	if _, err := Rewrite(p, q.Goals[0], withModel(Config{Policy: PolicyCost, Supplementary: true}, cat)); !errors.Is(err, everr.ErrUnsafe) {
		t.Errorf("cost policy (e splits): err = %v, want ErrUnsafe", err)
	}
	if _, err := Rewrite(p, q.Goals[0], withModel(Config{Policy: PolicyFollow, Supplementary: true}, cat)); err != nil {
		t.Errorf("follow policy: %v", err)
	}
}
