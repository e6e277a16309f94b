package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/lang"
	"chainsplit/internal/term"
)

const reachSrc = `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c).
unreachable(X, Y) :- node(X), node(Y), \+ reach(X, Y).
`

func TestNegationSeminaive(t *testing.T) {
	db := load(t, reachSrc)
	res := ask(t, db, "?- unreachable(a, Y).", Options{})
	// From a: reach = {b, c}. unreachable(a, _) = {a, d}.
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
	found := map[string]bool{}
	for _, a := range res.Answers {
		found[a[1].String()] = true
	}
	if !found["a"] || !found["d"] {
		t.Errorf("unreachable(a, Y) = %v", found)
	}
	// The stratum-wise construction lets magic handle negation: the
	// negated reach/2 stratum is materialized first, then unreachable
	// is magic-rewritten against it.
	if res.Plan.Strategy != StrategyMagic {
		t.Errorf("strategy = %v, want magic (stratified construction)", res.Plan.Strategy)
	}
	foundNote := false
	for _, n := range res.Plan.Notes {
		if strings.Contains(n, "materialized") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Errorf("plan notes missing materialization: %v", res.Plan.Notes)
	}
}

func TestGoalUnderNegationFallsBack(t *testing.T) {
	// The goal's own predicate is consumed under negation elsewhere:
	// no goal-direction remains, so the planner uses semi-naive.
	db := load(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
island(X) :- node(X), \+ reach(a, X).
node(a). node(b). node(d).
edge(a, b).
`)
	res := ask(t, db, "?- reach(a, Y).", Options{})
	if res.Plan.Strategy != StrategySeminaive {
		t.Errorf("strategy = %v, want seminaive fallback", res.Plan.Strategy)
	}
	if len(res.Answers) != 1 {
		t.Errorf("answers = %v", res.Answers)
	}
	// And the negated consumer still works via magic.
	res2 := ask(t, db, "?- island(X).", Options{Strategy: StrategyMagic})
	if len(res2.Answers) != 2 { // a is reachable? reach(a,a) false; reach(a,b) true → islands: a, d
		t.Errorf("island answers = %v", res2.Answers)
	}
}

func TestNegationMagicStrategiesAgree(t *testing.T) {
	for _, strat := range []Strategy{StrategyMagic, StrategyMagicFollow, StrategyMagicSplit} {
		db := load(t, reachSrc)
		res := ask(t, db, "?- unreachable(a, Y).", Options{Strategy: strat})
		if len(res.Answers) != 2 {
			t.Errorf("%v: answers = %v", strat, res.Answers)
		}
	}
}

func TestNegationTopDown(t *testing.T) {
	db := load(t, reachSrc)
	res := ask(t, db, "?- unreachable(a, Y).", Options{Strategy: StrategyTopDown})
	if len(res.Answers) != 2 {
		t.Fatalf("topdown answers = %v", res.Answers)
	}
}

func TestNegationStrategiesAgree(t *testing.T) {
	for _, strat := range []Strategy{StrategySeminaive, StrategyTopDown} {
		db := load(t, reachSrc)
		res := ask(t, db, "?- unreachable(X, Y).", Options{Strategy: strat})
		// 16 node pairs; reach = {(a,b),(a,c),(b,c)} → 13 unreachable.
		if len(res.Answers) != 13 {
			t.Errorf("%v: %d answers, want 13", strat, len(res.Answers))
		}
	}
}

func TestUnstratifiedRejected(t *testing.T) {
	db := load(t, `
p(X) :- n(X), \+ q(X).
q(X) :- n(X), \+ p(X).
n(1).
`)
	goals, _ := lang.ParseQuery("?- p(X).")
	_, err := db.Query(goals.Goals, Options{})
	if err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Errorf("err = %v, want stratification error", err)
	}
}

// TestStratifiedConeOnly checks that stratification is a property of
// the goal's dependency cone: recursion through negation elsewhere in
// the program refuses only the goals that reach it, under every
// strategy, and the refusal wraps ErrUnsafe.
func TestStratifiedConeOnly(t *testing.T) {
	const src = `
e(a, b). e(b, a).
p(X, Y) :- e(X, Y).
q(X) :- e(X, Y), \+ q(Y).
`
	for s := StrategyAuto; s <= StrategySeminaive; s++ {
		db := load(t, src)
		res := ask(t, db, "?- p(a, Y).", Options{Strategy: s})
		if got := fmt.Sprint(res.Answers); got != "[[a b]]" {
			t.Errorf("%s: p(a, Y) = %s, want [[a b]]", strategyNames[s], got)
		}
		goals, _ := lang.ParseQuery("?- q(X).")
		_, err := db.Query(goals.Goals, Options{Strategy: s})
		if !errors.Is(err, everr.ErrUnsafe) || !strings.Contains(fmt.Sprint(err), "not stratified") {
			t.Errorf("%s: q(X) err = %v, want a stratification error wrapping ErrUnsafe", strategyNames[s], err)
		}
	}
}

func TestNegatedBuiltinConstraint(t *testing.T) {
	db := load(t, `
val(1). val(2). val(3).
`)
	res := ask(t, db, "?- val(X), \\+ X = 2.", Options{})
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
}

// TestNegatedGoalPlanned checks that a query with a negated goal is
// planned as the query rule q$(X) :- goals.: the constant a binds the
// negated reach, so auto evaluates it by magic sets.
func TestNegatedGoalPlanned(t *testing.T) {
	db := load(t, reachSrc)
	res := ask(t, db, "?- node(X), \\+ reach(a, X).", Options{})
	SortAnswers(res.Answers)
	if got := fmt.Sprint(res.Answers); got != "[[a] [d]]" {
		t.Fatalf("answers = %s, want [[a] [d]]", got)
	}
	if res.Plan.Strategy != StrategyMagic || res.Plan.Goal != "q$(X)" {
		t.Errorf("strategy, goal = %v, %s; want magic(cost-split), q$(X)", res.Plan.Strategy, res.Plan.Goal)
	}
}

func TestNegationInFunctionalProgram(t *testing.T) {
	// set difference over lists: member via select-like recursion.
	db := load(t, `
member(X, [X|Xs]).
member(X, [Y|Ys]) :- member(X, Ys).
diff([], Ys, []).
diff([X|Xs], Ys, [X|Zs]) :- \+ member(X, Ys), diff(Xs, Ys, Zs).
diff([X|Xs], Ys, Zs) :- member(X, Ys), diff(Xs, Ys, Zs).
`)
	res := ask(t, db, "?- diff([1,2,3,4], [2,4], Zs).", Options{})
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v", res.Answers)
	}
	if !term.Equal(res.Answers[0][2], term.IntList(1, 3)) {
		t.Errorf("Zs = %v, want [1, 3]", res.Answers[0][2])
	}
}

func TestNegationParsePrint(t *testing.T) {
	res, err := lang.Parse(`p(X) :- n(X), \+ q(X, 1).`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Program.Rules[0]
	if !r.Body[1].Negated {
		t.Fatalf("negation lost: %v", r)
	}
	printed := r.String()
	if !strings.Contains(printed, "\\+ q(X, 1)") {
		t.Errorf("printed = %q", printed)
	}
	// Round trip.
	res2, err := lang.Parse(printed)
	if err != nil || !res2.Program.Rules[0].Body[1].Negated {
		t.Errorf("round trip failed: %v %v", res2, err)
	}
}

func TestDoubleNegationRejected(t *testing.T) {
	if _, err := lang.Parse(`p(X) :- \+ \+ q(X).`); err == nil {
		t.Error("double negation accepted")
	}
}
