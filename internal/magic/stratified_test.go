package magic

import (
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
)

const negSrc = `
edge(a, b). edge(b, c).
node(a). node(b). node(c). node(d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
unreachable(X, Y) :- node(X), node(Y), \+ reach(X, Y).
`

func stratifiedEval(t *testing.T, src, goalSrc string, cfg Config) *relation.Relation {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery(goalSrc)
	goal := goalQ.Goals[0]
	cat := catalogOf(p)
	rw, phase1, err := RewriteStratified(p, goal, withModel(cfg, cat))
	if err != nil {
		t.Fatal(err)
	}
	if len(phase1.Rules) > 0 {
		if _, err := seminaive.Eval(phase1, cat, seminaive.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := seminaive.Eval(rw.Program, cat, seminaive.Options{}); err != nil {
		t.Fatalf("%v\nprogram:\n%s", err, rw.Program)
	}
	return Answers(cat, rw, goal)
}

func TestRewriteStratifiedBasic(t *testing.T) {
	ans := stratifiedEval(t, negSrc, "?- unreachable(a, Y).", Config{Policy: PolicyFollow})
	// From a: reach {b, c}; unreachable(a, _) = {a, d}.
	if ans.Len() != 2 {
		t.Fatalf("answers = %v", ans.Sorted())
	}
	for _, w := range []string{"a", "d"} {
		if !ans.Contains(relation.Tuple{term.NewSym("a"), term.NewSym(w)}) {
			t.Errorf("missing unreachable(a, %s)", w)
		}
	}
}

func TestRewriteStratifiedMaterializationProgram(t *testing.T) {
	res, _ := lang.Parse(negSrc)
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- unreachable(a, Y).")
	_, phase1, err := RewriteStratified(p, goalQ.Goals[0], withModel(Config{Policy: PolicyFollow}, catalogOf(p)))
	if err != nil {
		t.Fatal(err)
	}
	// reach/2 (two rules) must be materialized; unreachable must not.
	if len(phase1.Rules) != 2 {
		t.Fatalf("phase1 = %v", phase1.Rules)
	}
	for _, r := range phase1.Rules {
		if r.Head.Pred != "reach" {
			t.Errorf("unexpected materialized rule %v", r)
		}
	}
}

func TestRewriteStratifiedGoalUnderNegation(t *testing.T) {
	res, _ := lang.Parse(negSrc)
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- reach(a, Y).")
	_, _, err := RewriteStratified(p, goalQ.Goals[0], Config{Policy: PolicyFollow})
	if err == nil || !strings.Contains(err.Error(), "consumed under negation") {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteStratifiedUnstratified(t *testing.T) {
	res, _ := lang.Parse(`
p(X) :- n(X), \+ q(X).
q(X) :- n(X), \+ p(X).
n(1).
`)
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- p(X).")
	_, _, err := RewriteStratified(p, goalQ.Goals[0], Config{Policy: PolicyFollow})
	if err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteRejectsNegationPlain(t *testing.T) {
	res, _ := lang.Parse(negSrc)
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- unreachable(a, Y).")
	_, err := Rewrite(p, goalQ.Goals[0], Config{Policy: PolicyFollow})
	if err == nil || !strings.Contains(err.Error(), "RewriteStratified") {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteStratifiedWithSupplementary(t *testing.T) {
	ans := stratifiedEval(t, negSrc, "?- unreachable(a, Y).", Config{Policy: PolicyFollow, Supplementary: true})
	if ans.Len() != 2 {
		t.Fatalf("answers = %v", ans.Sorted())
	}
}

func TestConfigThresholds(t *testing.T) {
	var c Config
	if c.thresholds().SplitAbove == 0 {
		t.Error("zero config did not default thresholds")
	}
	c.Thresholds.SplitAbove = 9
	c.Thresholds.FollowBelow = 3
	if c.thresholds().SplitAbove != 9 {
		t.Error("explicit thresholds ignored")
	}
}
