package seminaive

import (
	"context"
	"errors"
	"testing"

	"chainsplit/internal/builtin"
	"chainsplit/internal/cost"
	"chainsplit/internal/everr"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// TestEvalAllocsPerDerivedTuple bounds the executor's allocations per
// derived tuple on two programs, each evaluated against a frozen
// catalog snapshot:
//   - sg: the deep sg query of the family-recursion benchmark,
//     magic-rewritten, over 10 generations. What allocates per derived
//     tuple is the tuple itself (presence and index tables store no key:
//     a round appends to the head relation directly, and an index bucket
//     that exists takes a position), plus amortized slice and table
//     growth; a presence key, a substitution or a builtin lookup per
//     match would blow the bound.
//   - compare: p(X, Y) :- e(X, Y), X < Y. over 4,096 edges, half of
//     which pass. Each match calls the comparison, so what it allocates
//     per call shows here: its argument vector and the slice of its one
//     solution, 4.05 per derived tuple where measured.
func TestEvalAllocsPerDerivedTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	for _, row := range []struct {
		name string
		prog func(t *testing.T) (*program.Program, *relation.Catalog)
		max  float64
	}{
		{"sg", sgProgram, 2},
		{"compare", compareProgram, 5},
	} {
		prog, cat := row.prog(t)
		var stats *Stats
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if stats, err = Eval(prog, cat.Snapshot(), Options{}); err != nil {
				t.Fatal(err)
			}
		})
		perTuple := allocs / float64(stats.DerivedTuples)
		t.Logf("%s: %.0f allocations for %d derived tuples (%d matches): %.2f per tuple", row.name, allocs, stats.DerivedTuples, stats.Matches, perTuple)
		if perTuple > row.max {
			t.Errorf("%s: %.2f allocations per derived tuple, want <= %g", row.name, perTuple, row.max)
		}
	}
}

// sgProgram is the magic-rewritten deep sg query of the
// family-recursion benchmark and its frozen catalog.
func sgProgram(t *testing.T) (*program.Program, *relation.Catalog) {
	fam := workload.Family(workload.FamilyConfig{Generations: 10, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 1})
	cat := relation.NewCatalog()
	for _, f := range fam.Facts {
		cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
	}
	cat.Freeze()
	res, err := lang.Parse(workload.SGRules())
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery("?- sg(" + workload.PersonName(10, 700) + ", Y).")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := magic.Rewrite(program.Rectify(res.Program), q.Goals[0], magic.Config{Policy: magic.PolicyCost, Model: &cost.Model{Cat: cat}, Supplementary: true})
	if err != nil {
		t.Fatal(err)
	}
	return rw.Program, cat
}

// compareProgram is p(X, Y) :- e(X, Y), X < Y. over the edges (i, i+1)
// and (i+1, i) for i < 2,048, and its frozen catalog.
func compareProgram(t *testing.T) (*program.Program, *relation.Catalog) {
	cat := relation.NewCatalog()
	e := cat.Ensure("e", 2)
	for i := int64(0); i < 2048; i++ {
		e.Insert(relation.Tuple{term.NewInt(i), term.NewInt(i + 1)})
		e.Insert(relation.Tuple{term.NewInt(i + 1), term.NewInt(i)})
	}
	cat.Freeze()
	res, err := lang.Parse("p(X, Y) :- e(X, Y), X < Y.")
	if err != nil {
		t.Fatal(err)
	}
	return program.Rectify(res.Program), cat
}

// TestSerialCancellationMidRound cancels the context from inside the
// exit round's join and checks the serial executor notices within one
// cancellation-check period (8192 matches).
func TestSerialCancellationMidRound(t *testing.T) {
	const cancelAt = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	if err := builtin.Register("sn_cancel_tick", 1, []string{"b"}, func(s term.Subst, args []term.Term) ([]term.Subst, error) {
		if calls++; calls == cancelAt {
			cancel()
		}
		return []term.Subst{s.Clone()}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cat := relation.NewCatalog()
	e := cat.Ensure("e", 2)
	for i := int64(0); i < 4*8192; i++ {
		e.Insert(relation.Tuple{term.NewInt(i), term.NewInt(i + 1)})
	}
	res, err := lang.Parse("p(X, Y) :- e(X, Y), sn_cancel_tick(X).")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Eval(program.Rectify(res.Program), cat, Options{Ctx: ctx})
	if !errors.Is(err, everr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Matches < cancelAt || stats.Matches > cancelAt+8192 {
		t.Fatalf("evaluation stopped after %d matches, want within 8192 of the cancellation at %d", stats.Matches, cancelAt)
	}
}
