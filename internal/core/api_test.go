package core

import (
	"strings"
	"testing"

	"chainsplit/internal/term"
)

func TestCompileInfo(t *testing.T) {
	db := load(t, sgSrc)
	info, err := db.CompileInfo("sg/2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compiled sg/2", "linear", "2-chain", "exit:"} {
		if !strings.Contains(info, want) {
			t.Errorf("CompileInfo missing %q:\n%s", want, info)
		}
	}
	if _, err := db.CompileInfo("nosuch/9"); err == nil {
		t.Error("CompileInfo accepted unknown predicate")
	}
	// Redundant-rule notes surface.
	db2 := load(t, `
p(X) :- p(X), q(X).
p(X) :- e(X).
`)
	info2, err := db2.CompileInfo("p/1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info2, "note: dropped redundant") {
		t.Errorf("notes missing:\n%s", info2)
	}
}

func TestProgramSourceCatalogAccessors(t *testing.T) {
	db := load(t, "p([1|T]) :- q(T).\nq([]).\ne(a, b).")
	if len(db.Program().Rules) != 1 {
		t.Errorf("Program rules = %v", db.Program().Rules)
	}
	// Rectified program has cons literals; source keeps [1|T].
	if !strings.Contains(db.Program().String(), "cons(") {
		t.Errorf("rectified program missing cons:\n%s", db.Program())
	}
	if strings.Contains(db.Dump(), "cons(") {
		t.Errorf("source program rectified:\n%s", db.Dump())
	}
	if db.Catalog().Get("e") == nil {
		t.Error("catalog missing EDB relation")
	}
}

func TestLoadTuplesCore(t *testing.T) {
	db := NewDB()
	err := db.LoadTuples("edge", [][]term.Term{
		{term.NewSym("a"), term.NewSym("b")},
		{term.NewSym("b"), term.NewSym("c")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Get("edge").Len() != 2 {
		t.Error("tuples not loaded")
	}
	// Empty load is a no-op.
	if err := db.LoadTuples("edge", nil); err != nil {
		t.Errorf("empty load: %v", err)
	}
	// The facts participate in rule evaluation.
	db.Load(parse(t, "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- edge(X,Z), reach(Z,Y)."))
	out := ask(t, db, "?- reach(a, Y).", Options{})
	if len(out.Answers) != 2 {
		t.Errorf("answers = %v", out.Answers)
	}
}

func TestLimitOption(t *testing.T) {
	db := load(t, sgSrc)
	res := ask(t, db, "?- sg(c1, Y).", Options{Limit: 1})
	if len(res.Answers) != 1 {
		t.Errorf("limited answers = %v", res.Answers)
	}
	if row := res.Row(0); len(row) != 1 || row["Y"] == nil {
		t.Errorf("limited row = %v, want a binding of Y", row)
	}
}

func TestAnalysisCacheInvalidation(t *testing.T) {
	db := load(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	an1 := db.current().rules.analysis()
	if db.current().rules.analysis() != an1 {
		t.Error("analysis not cached across calls")
	}
	// Fact-only load carries the cache into the next generation.
	db.Load(parse(t, "e(a, b)."))
	if db.current().rules.analysis() != an1 {
		t.Error("fact-only load invalidated the analysis")
	}
	// Rule load invalidates it, and the new rules are analysed:
	// rev/2 did not exist before.
	db.Load(parse(t, "rev(X, Y) :- append(Y, [], X)."))
	if db.current().rules.analysis() == an1 {
		t.Error("rule load did not invalidate the analysis")
	}
	res := ask(t, db, "?- rev([1], Y).", Options{})
	if len(res.Answers) != 1 || !term.Equal(res.Answers[0][1], term.IntList(1)) {
		t.Errorf("rev answers = %v", res.Answers)
	}
}

func TestStrategyStringUnknown(t *testing.T) {
	if Strategy(99).String() != "strategy(99)" {
		t.Errorf("unknown strategy string = %q", Strategy(99))
	}
}
