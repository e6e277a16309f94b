package chain

import (
	"strings"
	"testing"

	"chainsplit/internal/adorn"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
)

func compile(t *testing.T, src, key string) (*Compiled, *program.Program) {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	g := program.NewDepGraph(p)
	c, err := Compile(p, g, key)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

const sgSrc = `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
`

const scsgSrc = `
scsg(X, Y) :- parent(X, X1), parent(Y, Y1), same_country(X1, Y1), scsg(X1, Y1).
scsg(X, Y) :- sibling(X, Y).
`

func TestSGTwoChains(t *testing.T) {
	c, _ := compile(t, sgSrc, "sg/2")
	if c.Class != program.ClassLinear {
		t.Errorf("class = %v", c.Class)
	}
	if len(c.RecRules) != 1 || len(c.ExitRules) != 1 {
		t.Fatalf("rules: rec=%d exit=%d", len(c.RecRules), len(c.ExitRules))
	}
	if got := c.NChains(); got != 2 {
		t.Errorf("sg NChains = %d, want 2 (parent-X chain and parent-Y chain)", got)
	}
}

func TestSCSGOneChain(t *testing.T) {
	// The paper's point: same_country CONNECTS the two parent
	// literals, merging them into one chain generating path.
	c, _ := compile(t, scsgSrc, "scsg/2")
	if c.Class != program.ClassLinear {
		t.Errorf("scsg class = %v, want linear", c.Class)
	}
	if got := c.NChains(); got != 1 {
		t.Errorf("scsg NChains = %d, want 1", got)
	}
	path := c.RecRules[0].Paths[0]
	if len(path.Literals) != 3 {
		t.Errorf("scsg path has %d literals, want 3", len(path.Literals))
	}
}

func TestAppendChainForm(t *testing.T) {
	c, _ := compile(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`, "append/3")
	if c.Class != program.ClassLinear {
		t.Errorf("class = %v", c.Class)
	}
	// Rectified recursive rule: cons(X,L1,U), cons(X,L3,W) share X →
	// one CGP with two connected cons predicates (paper's 1.17).
	if got := c.NChains(); got != 1 {
		t.Errorf("append NChains = %d, want 1", got)
	}
	if got := len(c.RecRules[0].Paths[0].Literals); got != 2 {
		t.Errorf("append CGP size = %d, want 2", got)
	}
}

func TestSplitAppend(t *testing.T) {
	c, p := compile(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`, "append/3")
	an := adorn.NewAnalysis(p)
	sp, err := ComputeSplit(an, c.RecRules[0], "bbf")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Mandatory {
		t.Error("append^bbf split should be mandatory (finiteness-based)")
	}
	if len(sp.Eval) != 1 || len(sp.Delayed) != 1 {
		t.Errorf("split = %+v", sp)
	}
	if sp.RecAd != "bbf" {
		t.Errorf("RecAd = %q", sp.RecAd)
	}
	body := c.RecRules[0].Rule.Body
	if body[sp.Eval[0]].Pred != "cons" || body[sp.Delayed[0]].Pred != "cons" {
		t.Errorf("split literals wrong: eval=%v delayed=%v", body[sp.Eval[0]], body[sp.Delayed[0]])
	}
	// Not finitely evaluable at all under ^fbf.
	if _, err := ComputeSplit(an, c.RecRules[0], "fbf"); err == nil {
		t.Error("append^fbf should not be finitely evaluable")
	} else if !strings.Contains(err.Error(), "not finitely evaluable") {
		t.Errorf("error = %v", err)
	}
}

func TestSplitSGNotMandatory(t *testing.T) {
	c, p := compile(t, sgSrc, "sg/2")
	an := adorn.NewAnalysis(p)
	sp, err := ComputeSplit(an, c.RecRules[0], "bf")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mandatory {
		t.Error("function-free sg^bf needs no mandatory split")
	}
	// Connectivity scheduling: parent(X,X1) is the evaluated portion;
	// parent(Y,Y1) shares no variable with the binding until the
	// recursion returns, so it is delayed (not a cross-product scan).
	if len(sp.Eval) != 1 || len(sp.Delayed) != 1 {
		t.Errorf("split = %+v", sp)
	}
	if sp.RecAd != "bf" {
		t.Errorf("RecAd = %q, want bf (binding not merged through parent(Y,Y1))", sp.RecAd)
	}
}

func TestSplitTravel(t *testing.T) {
	c, p := compile(t, `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
`, "travel/6")
	an := adorn.NewAnalysis(p)
	var rec RecRule
	for _, rr := range c.RecRules {
		if len(rr.Rule.Body) == 5 {
			rec = rr
		}
	}
	sp, err := ComputeSplit(an, rec, "fbffff")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Mandatory {
		t.Error("travel split should be mandatory")
	}
	if len(sp.Eval) != 1 || rec.Rule.Body[sp.Eval[0]].Pred != "flight" {
		t.Errorf("eval portion = %v", sp.Eval)
	}
	if len(sp.Delayed) != 3 {
		t.Errorf("delayed portion = %v", sp.Delayed)
	}
}

func TestNonlinearQsortCompiles(t *testing.T) {
	c, _ := compile(t, `
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls),
    qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`, "qsort/2")
	if c.Class != program.ClassNonlinear {
		t.Errorf("class = %v", c.Class)
	}
	if len(c.RecRules[0].RecIdx) != 2 {
		t.Errorf("RecIdx = %v, want two recursive literals", c.RecRules[0].RecIdx)
	}
}

func TestCompileUnknownPredicate(t *testing.T) {
	res, _ := lang.Parse(sgSrc)
	p := program.Rectify(res.Program)
	g := program.NewDepGraph(p)
	if _, err := Compile(p, g, "nosuch/2"); err == nil {
		t.Error("expected error for unknown predicate")
	}
}

func TestCompiledString(t *testing.T) {
	c, _ := compile(t, scsgSrc, "scsg/2")
	s := c.String()
	for _, want := range []string{"scsg/2", "single", "path 0", "exit"} {
		if !strings.Contains(s, want) && want != "single" {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "1-chain") {
		t.Errorf("String() missing chain count:\n%s", s)
	}
}
