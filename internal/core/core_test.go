package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

func load(t *testing.T, src string) *DB {
	t.Helper()
	db := NewDB()
	db.Load(parse(t, src))
	return db
}

func parse(t *testing.T, src string) *program.Program {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

func ask(t *testing.T, db *DB, q string, opts Options) *Result {
	t.Helper()
	goals, err := lang.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(goals.Goals, opts)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return res
}

const sgSrc = `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
parent(c1, p1). parent(c2, p2).
parent(p1, g1). parent(p2, g1).
sibling(p1, p2). sibling(g1, g1).
`

func TestAutoPicksMagicForFunctionFree(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- sg(c1, Y).", Options{})
	if res.Plan.Strategy != StrategyMagic {
		t.Errorf("strategy = %v, want magic", res.Plan.Strategy)
	}
	if len(res.Answers) != 2 {
		t.Errorf("answers = %v", res.Answers)
	}
	if res.Plan.Class != program.ClassLinear {
		t.Errorf("class = %v", res.Plan.Class)
	}
	if res.Metrics.MagicTuples == 0 {
		t.Error("magic metrics missing")
	}
}

func TestAutoPicksBufferedForFunctionalLinear(t *testing.T) {
	db := load(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	res := ask(t, db, "?- append([1,2], [3], W).", Options{})
	if res.Plan.Strategy != StrategyBuffered {
		t.Errorf("strategy = %v, want buffered", res.Plan.Strategy)
	}
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][2], term.IntList(1, 2, 3)) {
		t.Errorf("answers = %v", res.Answers)
	}
	if res.Metrics.Edges == 0 {
		t.Error("buffered metrics missing")
	}
	if len(res.Plan.Splits) != 1 || !strings.Contains(res.Plan.Splits[0], "mandatory") {
		t.Errorf("splits = %v", res.Plan.Splits)
	}
}

func TestAutoPicksTopDownForNonlinear(t *testing.T) {
	db := load(t, `
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls), qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	res := ask(t, db, "?- qsort([4,9,5], Ys).", Options{})
	if res.Plan.Strategy != StrategyTopDown {
		t.Errorf("strategy = %v, want topdown", res.Plan.Strategy)
	}
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][1], term.IntList(4, 5, 9)) {
		t.Errorf("answers = %v", res.Answers)
	}
}

// isortSrc is insertion sort: a linear recursion whose delayed portion
// calls the recursive insert.
const isortSrc = `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
`

func TestIsortNestedViaBuffered(t *testing.T) {
	db := load(t, isortSrc)
	res := ask(t, db, "?- isort([5,7,1], Ys).", Options{})
	if res.Plan.Strategy != StrategyBuffered {
		t.Errorf("strategy = %v, want buffered (nested linear)", res.Plan.Strategy)
	}
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][1], term.IntList(1, 5, 7)) {
		t.Errorf("answers = %v", res.Answers)
	}
}

// TestBufferedBudgetEndsQuery checks that a budget exhausted by the
// top-down engine that buffered evaluation solves its portions on ends
// the query: falling back to top-down would only burn it again.
func TestBufferedBudgetEndsQuery(t *testing.T) {
	db := load(t, isortSrc)
	defer faultinject.Set(faultinject.SiteTopdownStep, func() error {
		return fmt.Errorf("injected: %w", everr.ErrBudget)
	})()
	q, err := lang.ParseQuery("?- isort([5,7,1], Ys).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q.Goals, Options{Strategy: StrategyBuffered})
	var ee *EvalError
	if !errors.As(err, &ee) || !errors.Is(err, everr.ErrBudget) || ee.Strategy != StrategyBuffered.String() {
		t.Fatalf("err = %v, want a budget failure of the buffered strategy", err)
	}
	if res == nil || res.Plan == nil {
		t.Fatal("no plan")
	}
	if len(res.Plan.Notes) > 0 {
		t.Errorf("plan notes = %v, want no fallback note", res.Plan.Notes)
	}
}

func TestStrategyOverrideAgreement(t *testing.T) {
	// All applicable strategies must return the same answer set.
	for _, strat := range []Strategy{StrategyMagic, StrategyMagicFollow, StrategyMagicSplit, StrategySeminaive, StrategyTopDown, StrategyBuffered} {
		db := load(t, sgSrc)
		res := ask(t, db, "?- sg(c1, Y).", Options{Strategy: strat})
		if len(res.Answers) != 2 {
			t.Errorf("%v: %d answers (%v)", strat, len(res.Answers), res.Answers)
		}
		found := map[string]bool{}
		for _, a := range res.Answers {
			found[a[1].String()] = true
		}
		if !found["c1"] || !found["c2"] {
			t.Errorf("%v: answers = %v", strat, res.Answers)
		}
	}
}

func TestEDBLookup(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- parent(c1, P).", Options{})
	if res.Plan.Strategy != StrategySeminaive {
		t.Errorf("strategy = %v", res.Plan.Strategy)
	}
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][1], term.NewSym("p1")) {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestBuiltinGoal(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- plus(2, 3, X).", Options{})
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][2], term.NewInt(5)) {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestConstraintsOnMagicAnswers(t *testing.T) {
	db := load(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
edge(1, 2). edge(2, 3). edge(3, 4).
`)
	res := ask(t, db, "?- reach(1, Y), Y =< 3.", Options{})
	if len(res.Answers) != 2 {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestNotFinitelyEvaluableRejected(t *testing.T) {
	db := load(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	goals, _ := lang.ParseQuery("?- append(U, [3], W).")
	_, err := db.Query(goals.Goals, Options{})
	if !errors.Is(err, ErrNotFinitelyEvaluable) {
		t.Errorf("err = %v, want ErrNotFinitelyEvaluable", err)
	}
}

func TestTravelWithConstraintPushing(t *testing.T) {
	db := load(t, `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
flight(1, a, 100, b, 50, 50).
flight(2, b, 100, a, 50, 60).
flight(3, a, 100, c, 50, 70).
`)
	res := ask(t, db, "?- travel(L, a, DT, A, AT, F), F =< 200.", Options{MaxLevels: 500})
	if res.Plan.Strategy != StrategyBuffered {
		t.Fatalf("strategy = %v", res.Plan.Strategy)
	}
	if len(res.Plan.Pushed) != 1 {
		t.Errorf("Pushed = %v / %v", res.Plan.Pushed, res.Plan.NotPushed)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		if a[5].(term.Int).V > 200 {
			t.Errorf("violating answer %v", a)
		}
	}
	if res.Metrics.Pruned == 0 {
		t.Error("no pruning recorded")
	}
}

// TestConjunctiveQueryPlanned checks that a conjunction is planned as
// the query rule q$(X, P, Y) :- goals.: with no constant to bind it,
// auto evaluates it semi-naive.
func TestConjunctiveQueryPlanned(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- parent(X, P), parent(Y, P), X \\= Y.", Options{})
	if res.Plan.Strategy != StrategySeminaive || res.Plan.Goal != "q$(X, P, Y)" {
		t.Errorf("strategy, goal = %v, %s; want seminaive, q$(X, P, Y)", res.Plan.Strategy, res.Plan.Goal)
	}
	// p1 and p2 share g1: (p1,p2) and (p2,p1).
	SortAnswers(res.Answers)
	if got := fmt.Sprint(res.Answers); got != "[[p1 g1 p2] [p2 g1 p1]]" {
		t.Errorf("answers = %s, want [[p1 g1 p2] [p2 g1 p1]]", got)
	}
}

// TestConjunctionAnswersBindEveryVariable pins the answer shape of a
// conjunction of several relational goals: one vector over all its
// variables, so answers that differ only in a later goal's binding are
// not collapsed; a ground conjunction that holds answers one empty
// vector.
func TestConjunctionAnswersBindEveryVariable(t *testing.T) {
	db := load(t, "e(a, b). e(b, c). e(c, d). e(b, x).")
	res := ask(t, db, "?- e(X, Y), e(Y, Z).", Options{})
	SortAnswers(res.Answers)
	if got, want := fmt.Sprint(res.Vars, res.Answers), "[X Y Z] [[a b c] [a b x] [b c d]]"; got != want {
		t.Errorf("Vars, Answers = %s, want %s", got, want)
	}
	for i := range res.Answers {
		if b := res.Row(i); len(b) != 3 {
			t.Errorf("binding %v does not bind X, Y and Z", b)
		}
	}
	res = ask(t, db, "?- e(a, b), e(b, c).", Options{})
	if got := fmt.Sprint(res.Vars, res.Answers); got != "[] [[]]" {
		t.Errorf("ground conjunction: Vars, Answers = %s, want [] [[]]", got)
	}
}

// TestTopDownAnswersPlannedGoal checks that top-down answers the goal
// the query was planned as: a conjunction's query rule is one call.
func TestTopDownAnswersPlannedGoal(t *testing.T) {
	db := load(t, "e(a, b). e(b, c).")
	res := ask(t, db, "?- e(X, Y), e(Y, Z).", Options{Strategy: StrategyTopDown})
	if res.Plan.Goal != "q$(X, Y, Z)" || res.Metrics.Calls != 1 {
		t.Errorf("Plan.Goal, Calls = %s, %d, want q$(X, Y, Z), 1", res.Plan.Goal, res.Metrics.Calls)
	}
	if got := fmt.Sprint(res.Vars, res.Answers); got != "[X Y Z] [[a b c]]" {
		t.Errorf("Vars, Answers = %s, want [X Y Z] [[a b c]]", got)
	}
}

func TestExplain(t *testing.T) {
	db := load(t, sgSrc)
	goals, _ := lang.ParseQuery("?- sg(c1, Y).")
	plan, err := db.Explain(goals.Goals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"sg(c1, Y)", "bf", "linear", "magic"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

// TestResultBindingsNested checks that a variable nested in a goal
// argument is a query variable, bound in every row.
func TestResultBindingsNested(t *testing.T) {
	db := load(t, `e(c, [1, 2]). e(c, [3]). e(c, []). e(c, foo).`)
	res := ask(t, db, "?- e(c, [H|T]).", Options{})
	if got := strings.Join(res.Vars, ","); got != "H,T" {
		t.Fatalf("Vars = %v, want [H T]", res.Vars)
	}
	var rows []string
	for i := range res.Answers {
		b := res.Row(i)
		rows = append(rows, fmt.Sprintf("H=%v T=%v", b["H"], b["T"]))
	}
	sort.Strings(rows)
	if got, want := strings.Join(rows, "; "), "H=1 T=[2]; H=3 T=[]"; got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
}

func TestResultBindings(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- sg(c1, Y).", Options{})
	if len(res.Vars) != 1 || res.Vars[0] != "Y" {
		t.Errorf("Vars = %v", res.Vars)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for i := range res.Answers {
		if b := res.Row(i); b["Y"] == nil {
			t.Errorf("binding missing Y: %v", b)
		}
	}
}

func TestIncrementalLoad(t *testing.T) {
	db := load(t, "edge(a, b).")
	res2, err := lang.Parse("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\nedge(b, c).")
	if err != nil {
		t.Fatal(err)
	}
	db.Load(res2.Program)
	res := ask(t, db, "?- reach(a, Y).", Options{})
	if len(res.Answers) != 2 {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestSortAnswers(t *testing.T) {
	answers := [][]term.Term{
		{term.NewInt(3)}, {term.NewInt(1)}, {term.NewInt(2)},
	}
	SortAnswers(answers)
	for i, want := range []int64{1, 2, 3} {
		if !term.Equal(answers[i][0], term.NewInt(want)) {
			t.Fatalf("sorted = %v", answers)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for s := StrategyAuto; s <= StrategySeminaive; s++ {
		if strings.HasPrefix(s.String(), "strategy(") {
			t.Errorf("strategy %d unnamed", s)
		}
	}
}

func TestDifferentialSCSGAllPolicies(t *testing.T) {
	src := `
scsg(X, Y) :- parent(X, X1), parent(Y, Y1), same_country(X1, Y1), scsg(X1, Y1).
scsg(X, Y) :- sibling(X, Y).
parent(ann, ap1). parent(ap1, ap2).
parent(bob, bp1). parent(bp1, bp2).
sibling(ap2, bp2).
same_country(ap1, bp1). same_country(ap2, bp2).
`
	var baseline string
	for _, strat := range []Strategy{StrategyMagicFollow, StrategyMagic, StrategyMagicSplit, StrategyTopDown, StrategySeminaive} {
		db := load(t, src)
		res := ask(t, db, "?- scsg(ann, Y).", Options{Strategy: strat})
		SortAnswers(res.Answers)
		var b strings.Builder
		for _, a := range res.Answers {
			b.WriteString(a[0].String() + "," + a[1].String() + ";")
		}
		if baseline == "" {
			baseline = b.String()
			if !strings.Contains(baseline, "bob") {
				t.Fatalf("baseline missing scsg(ann,bob): %q", baseline)
			}
		} else if b.String() != baseline {
			t.Errorf("%v differs: %q vs %q", strat, b.String(), baseline)
		}
	}
}

// TestConstraintSidesNotGround checks, under every strategy, a goal's
// =/2 constraints whose two sides both hold an anonymous variable: the
// constraint holds exactly when the sides unify.
func TestConstraintSidesNotGround(t *testing.T) {
	db := load(t, "p(a).")
	for _, strat := range everyStrategy {
		for query, want := range map[string]string{
			"?- p(X), \\+ g(X, _) = f(_, 1).": "[[a]]",
			"?- p(X), \\+ g(X, _) = g(_, 1).": "[]",
		} {
			if got := fmt.Sprint(ask(t, db, query, Options{Strategy: strat}).Answers); got != want {
				t.Errorf("%v on %s: %s, want %s", strat, query, got, want)
			}
		}
	}
}

// TestQueryAnswerShape pins, under every strategy, the answer shape of
// each query that is not one positive relational goal: its Vars, its
// sorted answers and the arity of every answer vector. A query of
// builtins only answers with the argument vector of its one goal; a
// conjunction or a negated goal with a vector over its variables.
func TestQueryAnswerShape(t *testing.T) {
	db := load(t, "e(a, b). e(b, c). id(X, X).")
	cases := []struct {
		query, vars, answers string
		arity                int
	}{
		{"?- X = 1.", "[X]", "[[1 1]]", 2},
		{"?- plus(1, 2, X).", "[X]", "[[1 2 3]]", 3},
		{"?- 1 < 2.", "[]", "[[1 2]]", 2},
		{"?- 2 < 1.", "[]", "[]", 2},
		{"?- \\+ e(a, c).", "[]", "[[]]", 0},
		{"?- \\+ e(a, b).", "[]", "[]", 0},
		{"?- e(a, b), e(b, c).", "[]", "[[]]", 0},
		{"?- e(X, Y), e(Y, Z).", "[X Y Z]", "[[a b c]]", 3},
		{"?- [H|T] = [1, 2].", "[H T]", "[[[1, 2] [1, 2]]]", 2},
		{"?- e(X, a), c = Y.", "[X Y]", "[]", 2},
		{"?- e(X, b), c = Y.", "[X Y]", "[[a c]]", 2},
	}
	for _, strat := range everyStrategy {
		for _, c := range cases {
			q, err := lang.ParseQuery(c.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(q.Goals, Options{Strategy: strat})
			if err != nil {
				t.Errorf("%v on %s: %v", strat, c.query, err)
				continue
			}
			SortAnswers(res.Answers)
			if got := fmt.Sprint(res.Vars, " ", res.Answers); got != c.vars+" "+c.answers {
				t.Errorf("%v on %s: Vars, Answers = %s, want %s %s", strat, c.query, got, c.vars, c.answers)
			}
			for _, a := range res.Answers {
				if len(a) != c.arity {
					t.Errorf("%v on %s: answer %v has arity %d, want %d", strat, c.query, a, len(a), c.arity)
				}
			}
		}
		q, _ := lang.ParseQuery("?- X = Y.")
		if _, err := db.Query(q.Goals, Options{Strategy: strat}); !errors.Is(err, everr.ErrUnsafe) {
			t.Errorf("%v on ?- X = Y.: err = %v, want ErrUnsafe", strat, err)
		}
		// The constraint binds the goal's Z, so the query runs as the
		// query rule. Semi-naive evaluation computes id/2's whole
		// extension, which is infinite, and refuses the query as it
		// refuses ?- id(Z, 1).
		q, _ = lang.ParseQuery("?- id(Z, W), Z = 1.")
		res, err := db.Query(q.Goals, Options{Strategy: strat})
		switch {
		case strat == StrategySeminaive:
			if !errors.Is(err, everr.ErrUnsafe) || !strings.Contains(fmt.Sprint(err), "not safe for bottom-up evaluation") {
				t.Errorf("%v on ?- id(Z, W), Z = 1.: err = %v, want the bottom-up safety refusal", strat, err)
			}
		case err != nil:
			t.Errorf("%v on ?- id(Z, W), Z = 1.: %v", strat, err)
		case fmt.Sprint(res.Vars, " ", res.Answers) != "[Z W] [[1 1]]":
			t.Errorf("%v on ?- id(Z, W), Z = 1.: Vars, Answers = %v %v, want [Z W] [[1 1]]", strat, res.Vars, res.Answers)
		}
	}
}
