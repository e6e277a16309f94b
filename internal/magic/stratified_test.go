package magic

import (
	"fmt"
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
	rw, err := Rewrite(p, goal, withModel(cfg, cat))
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Materialize.Rules) > 0 {
		if _, err := seminaive.Eval(&rw.Materialize, cat, seminaive.Options{}); err != nil {
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
	rw, err := Rewrite(p, goalQ.Goals[0], withModel(Config{Policy: PolicyFollow}, catalogOf(p)))
	if err != nil {
		t.Fatal(err)
	}
	// reach/2 (two rules) must be materialized; unreachable must not.
	if len(rw.Materialize.Rules) != 2 {
		t.Fatalf("materialize = %v", rw.Materialize.Rules)
	}
	for _, r := range rw.Materialize.Rules {
		if r.Head.Pred != "reach" {
			t.Errorf("unexpected materialized rule %v", r)
		}
	}
}

// TestRewriteStratifiedGoalUnderNegation: reach/2 is negated by
// unreachable/2, outside reach's own dependency cone, so the rewrite of
// a reach goal stays goal-directed and materializes nothing.
func TestRewriteStratifiedGoalUnderNegation(t *testing.T) {
	res, _ := lang.Parse(negSrc)
	p := program.Rectify(res.Program)
	goalQ, _ := lang.ParseQuery("?- reach(a, Y).")
	rw, err := Rewrite(p, goalQ.Goals[0], withModel(Config{Policy: PolicyFollow}, catalogOf(p)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Materialize.Rules) != 0 {
		t.Errorf("materialize = %v, want nothing", rw.Materialize.Rules)
	}
	ans := stratifiedEval(t, negSrc, "?- reach(a, Y).", Config{Policy: PolicyFollow})
	if got := fmt.Sprint(ans.Sorted()); got != "[(a, b) (a, c)]" {
		t.Errorf("answers = %s, want [(a, b) (a, c)]", got)
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
	_, err := Rewrite(p, goalQ.Goals[0], Config{Policy: PolicyFollow})
	if err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Errorf("err = %v", err)
	}
}

// TestRewriteMaterializesOnlyUnderNegation: the one Rewrite entry
// returns materialization rules exactly when the program negates, and
// the magic program then reads the materialized predicate as EDB.
func TestRewriteMaterializesOnlyUnderNegation(t *testing.T) {
	for _, c := range []struct {
		src, goal string
		want      int
	}{
		// far reads reach both positively and under negation.
		{negSrc + "far(X, Y) :- reach(X, Y), \\+ reach(Y, X).\n", "?- far(a, Y).", 2},
		{`
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`, "?- reach(a, Y).", 0},
	} {
		res, err := lang.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p := program.Rectify(res.Program)
		goalQ, _ := lang.ParseQuery(c.goal)
		rw, err := Rewrite(p, goalQ.Goals[0], withModel(Config{Policy: PolicyFollow}, catalogOf(p)))
		if err != nil {
			t.Fatalf("%s: %v", c.goal, err)
		}
		if got := len(rw.Materialize.Rules); got != c.want {
			t.Fatalf("%s: %d materialization rules, want %d: %v", c.goal, got, c.want, rw.Materialize.Rules)
		}
		if c.want == 0 {
			continue
		}
		for _, r := range rw.Program.Rules {
			if strings.HasPrefix(r.Head.Pred, "reach@") || strings.HasPrefix(r.Head.Pred, "m$reach@") {
				t.Errorf("materialized reach was magic-rewritten: %v", r)
			}
		}
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
