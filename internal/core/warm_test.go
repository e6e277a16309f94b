package core

import (
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// familyDB loads the family forest of the given number of generations
// (the short-query benchmark's data, one country per person) and the
// sg rules.
func familyDB(tb testing.TB, gens int) *DB {
	tb.Helper()
	fam := workload.Family(workload.FamilyConfig{Generations: gens, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 1})
	db := NewDB()
	byPred := map[string][][]term.Term{}
	var preds []string
	for _, f := range fam.Facts {
		if _, ok := byPred[f.Pred]; !ok {
			preds = append(preds, f.Pred)
		}
		byPred[f.Pred] = append(byPred[f.Pred], f.Args)
	}
	for _, p := range preds {
		if err := db.LoadTuples(p, byPred[p]); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := lang.Parse(workload.SGRules())
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Load(res.Program); err != nil {
		tb.Fatal(err)
	}
	return db
}

// warmBoundQuery is short-query's query: sg of one person of the third
// generation, over 13 generations.
func warmBoundQuery(tb testing.TB) (*DB, []program.Atom) {
	tb.Helper()
	db := familyDB(tb, 13)
	q, err := lang.ParseQuery("?- sg(" + workload.PersonName(3, 5) + ", Y).")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Query(q.Goals, Options{}); err != nil {
		tb.Fatal(err)
	}
	return db, q.Goals
}

// BenchmarkWarmBoundQuery times short-query's query on a database that
// has answered it before, so everything derived from the rules alone is
// already built.
func BenchmarkWarmBoundQuery(b *testing.B) {
	db, goals := warmBoundQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(goals, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmBoundQueryAllocs bounds the allocations of one warm
// BenchmarkWarmBoundQuery query: 162 where measured, plus 20%. Before
// the rule set cached the rewrite and the compiled program the query
// made 638.
const warmBoundQueryAllocs = 195

// TestWarmBoundQueryAllocs gates the allocations of short-query's query
// on a warm database: a rule-only structure rebuilt per query (an
// analysis, a rewrite, a compiled program) blows the bound.
func TestWarmBoundQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	db, goals := warmBoundQuery(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(goals, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm query, bound %d", allocs, warmBoundQueryAllocs)
	if allocs > warmBoundQueryAllocs {
		t.Errorf("%.0f allocations per warm query, want <= %d", allocs, warmBoundQueryAllocs)
	}
}
