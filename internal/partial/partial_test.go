package partial

import (
	"strings"
	"testing"

	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/counting"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/topdown"
)

const travelSrc = `
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
`

type fixture struct {
	prog *program.Program
	an   *adorn.Analysis
	comp *chain.Compiled
	cat  *relation.Catalog
}

func setup(t *testing.T, src string) *fixture {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	g := program.NewDepGraph(p)
	comp, err := chain.Compile(p, g, "travel/6")
	if err != nil {
		t.Fatal(err)
	}
	cat := relation.NewCatalog()
	for _, f := range p.Facts {
		cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
	}
	return &fixture{prog: p, an: adorn.NewAnalysis(p), comp: comp, cat: cat}
}

func parseQuery(t *testing.T, src string) (program.Atom, []program.Atom) {
	t.Helper()
	q, err := lang.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q.Goals[0], q.Goals[1:]
}

func TestPushFareBound(t *testing.T) {
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F =< 200.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc == nil {
		t.Fatalf("fare bound not pushed: %+v", res)
	}
	if res.Acc.Bound != 200 || res.Acc.Strict {
		t.Errorf("spec = %+v", res.Acc)
	}
	if len(res.Acc.IncrementVar) != 1 {
		t.Errorf("IncrementVar = %v", res.Acc.IncrementVar)
	}
	if len(res.Pushed) != 1 || !strings.Contains(res.Pushed[0], "pushed") {
		t.Errorf("Pushed = %v", res.Pushed)
	}
}

func TestPushStrictAndReversed(t *testing.T) {
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), 200 > F.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc == nil || !res.Acc.Strict || res.Acc.Bound != 200 {
		t.Errorf("spec = %+v (%v)", res.Acc, res.NotPushed)
	}
}

func TestLowerBoundNotPushed(t *testing.T) {
	// F >= 100 is not an upper bound on a monotone sum — must stay
	// residual only.
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F >= 100.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc != nil {
		t.Errorf("lower bound wrongly pushed: %+v", res.Acc)
	}
	if len(res.NotPushed) != 1 {
		t.Errorf("NotPushed = %v", res.NotPushed)
	}
}

func TestNegativeFaresBlockPush(t *testing.T) {
	src := strings.Replace(travelSrc, "flight(3, a, 100, c, 50, 70).", "flight(3, a, 100, c, 50, -70).", 1)
	fx := setup(t, src)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F =< 200.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc != nil {
		t.Error("push allowed despite negative fares (unsound pruning)")
	}
}

func TestConstraintOnNonGoalVar(t *testing.T) {
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), Z =< 200.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc != nil {
		t.Error("pushed a constraint on a variable not in the goal")
	}
}

func TestEndToEndPrunedEvaluation(t *testing.T) {
	// The cyclic flight graph diverges without pruning; with the fare
	// bound pushed it terminates and every answer satisfies the bound.
	fx := setup(t, travelSrc)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F =< 200.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil || res.Acc == nil {
		t.Fatalf("push failed: %+v err=%v", res, err)
	}
	ev := counting.New(fx.prog, fx.cat, fx.comp, counting.Options{
		MaxLevels: 1000, Acc: res.Acc,
	})
	raw, err := ev.Query(goal)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := FilterAnswers(goal, res.Residual, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range answers {
		f := a[5].(term.Int).V
		if f > 200 {
			t.Errorf("answer violates pushed bound: %v", a)
		}
	}
	if ev.Stats().Pruned == 0 {
		t.Error("nothing pruned")
	}
	// Cross-check against the top-down oracle with post-filtering on a
	// bounded variant? The top-down engine would diverge on the cyclic
	// graph, so instead verify the expected itineraries directly:
	// fares: direct 1 (50), 3 (70); 1→2 (110), 1→2→3? 2 arrives a,
	// then 3: 50+60+70=180 ✓; 1→2→1→2… exceeds 200 eventually.
	wantRoutes := map[string]bool{
		"[1]":       true,
		"[3]":       true,
		"[1, 2]":    false, // 1→2 ends at a; it IS a valid itinerary (fare 110)
		"[1, 2, 3]": false,
	}
	found := make(map[string]bool)
	for _, a := range answers {
		found[a[0].String()] = true
	}
	for r := range wantRoutes {
		if !found[r] {
			t.Errorf("missing itinerary %s (found %v)", r, found)
		}
	}
}

func TestFilterAnswers(t *testing.T) {
	goal, cons := parseQuery(t, "?- p(X, F), F =< 10.")
	answers := [][]term.Term{
		{term.NewSym("a"), term.NewInt(5)},
		{term.NewSym("b"), term.NewInt(15)},
	}
	out, err := FilterAnswers(goal, cons, answers)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !term.Equal(out[0][0], term.NewSym("a")) {
		t.Errorf("filtered = %v", out)
	}
	// No constraints: passthrough.
	out2, err := FilterAnswers(goal, nil, answers)
	if err != nil || len(out2) != 2 {
		t.Errorf("passthrough failed: %v %v", out2, err)
	}
}

func TestAcyclicAgreesWithTopdown(t *testing.T) {
	// On an acyclic graph, pruned buffered evaluation + residual filter
	// must agree with the top-down oracle + filter.
	src := `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
flight(1, a, 100, b, 50, 50).
flight(2, b, 100, c, 50, 60).
flight(3, c, 100, d, 50, 70).
flight(4, a, 100, d, 50, 500).
`
	fx := setup(t, src)
	goal, cons := parseQuery(t, "?- travel(L, a, DT, A, AT, F), F =< 150.")
	res, err := PushConstraints(fx.an, fx.comp, fx.cat, goal, cons)
	if err != nil || res.Acc == nil {
		t.Fatalf("push failed: %+v err=%v", res, err)
	}
	ev := counting.New(fx.prog, fx.cat.Snapshot(), fx.comp, counting.Options{Acc: res.Acc})
	raw, err := ev.Query(goal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FilterAnswers(goal, res.Residual, raw)
	if err != nil {
		t.Fatal(err)
	}

	td := topdown.New(fx.prog, fx.cat.Snapshot(), topdown.Options{})
	sols, err := td.SolveConjunction([]program.Atom{goal})
	if err != nil {
		t.Fatal(err)
	}
	var rawTD [][]term.Term
	for _, s := range sols {
		rawTD = append(rawTD, s.ResolveAll(goal.Args))
	}
	want, err := FilterAnswers(goal, res.Residual, rawTD)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("buffered+prune %d answers, topdown %d\n%v\nvs\n%v", len(got), len(want), got, want)
	}
	key := func(row []term.Term) string {
		var kb []byte
		for _, a := range row {
			kb = term.AppendKey(kb, a)
		}
		return string(kb)
	}
	wantSet := make(map[string]bool)
	for _, w := range want {
		wantSet[key(w)] = true
	}
	for _, g := range got {
		if !wantSet[key(g)] {
			t.Errorf("extra answer %v", g)
		}
	}
}
