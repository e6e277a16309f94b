package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chainsplit/internal/cost"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// The rule set caches everything derived from the rules alone (see
// ruleSet). These tests check that the cache is exact: a warm query
// answers, plans and counts exactly as a cold one, and a write that
// changes what a plan reads from the catalog or the rules is seen by
// the next query.

// cacheCase is one experiment query over its program.
type cacheCase struct {
	name  string
	rules string
	facts *program.Program
	query string
}

// experimentQueries are the experiments' queries (internal/experiments)
// over small instances of their workloads.
func experimentQueries() []cacheCase {
	chain := &program.Program{}
	for i := 0; i < 8; i++ {
		chain.Facts = append(chain.Facts, program.NewAtom("e", term.NewSym(fmt.Sprintf("n%d", i)), term.NewSym(fmt.Sprintf("n%d", i+1))))
	}
	flights := workload.Flights(workload.FlightsConfig{Cities: 4, OutDegree: 2, Layered: true, Layers: 3, MaxFare: 100, Seed: 5})
	start := workload.CityName(0, 0)
	return []cacheCase{
		{"sg", workload.SGRules(), workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 1, Seed: 1}),
			"?- sg(" + workload.PersonName(4, 0) + ", Y)."},
		{"scsg", workload.SCSGRules(), workload.Family(workload.FamilyConfig{Generations: 3, Fanout: 3, Roots: 1, Countries: 2, Seed: 11}),
			"?- scsg(" + workload.PersonName(3, 0) + ", Y)."},
		{"bridge", workload.BridgeRules(), workload.Bridge(workload.BridgeConfig{Depth: 3, Expansion: 3}), "?- r2(a0, Y)."},
		{"alternating", workload.AlternatingRules(), workload.Alternating(workload.AlternatingConfig{Layers: 3, Width: 3, OutDegree: 2, Seed: 17}),
			"?- reachA(" + workload.NodeName(0, 0) + ", Y)."},
		{"travel", workload.TravelRules(), flights, "?- travel(L, " + start + ", DT, A, AT, F)."},
		{"travel-bound", workload.TravelRules(), flights, "?- travel(L, " + start + ", DT, A, AT, F), F =< 150."},
		{"nl", "nl(X, Y) :- e(X, Y).\nnl(X, Y) :- nl(X, Z), nl(Z, Y).\n", chain, "?- nl(n0, Y)."},
		{"append", workload.AppendRules(), &program.Program{}, "?- append([3, 1, 2], [-1], W)."},
		{"append-unsafe", workload.AppendRules(), &program.Program{}, "?- append(U, [3], W)."},
		{"isort", workload.SortRules(), &program.Program{}, "?- isort([3, 1, 2, 5, 4], Ys)."},
		{"qsort", workload.SortRules(), &program.Program{}, "?- qsort([3, 1, 2, 5, 4], Ys)."},
	}
}

// cacheDB loads rules and facts into a new database.
func cacheDB(t *testing.T, rules string, facts *program.Program) *DB {
	t.Helper()
	res, err := lang.Parse(rules)
	if err != nil {
		t.Fatal(err)
	}
	p := &program.Program{Rules: res.Program.Rules, Pragmas: res.Program.Pragmas, Facts: facts.Facts}
	db := NewDB()
	if err := db.Load(p); err != nil {
		t.Fatal(err)
	}
	return db
}

// outcome is everything a query's result must repeat exactly: the
// error, the plan, the answers and every count.
func outcome(res *Result, err error) string {
	if res == nil {
		return fmt.Sprintf("error %v", err)
	}
	m := res.Metrics
	return fmt.Sprintf("error %v\nplan %#v\nvars %v\nanswers %v\ncounts %d %d %d %d | %d %d %d %d | %d %d %d | %q",
		err, *res.Plan, res.Vars, res.Answers,
		m.Iterations, m.DerivedTuples, m.Matches, m.MagicTuples,
		m.Contexts, m.Edges, m.Pruned, m.UpJoins,
		m.Steps, m.Calls, m.TableHits, m.FallbackFrom)
}

func queryText(t *testing.T, db *DB, q string, opts Options) (*Result, error) {
	t.Helper()
	goals, err := lang.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return db.Query(goals.Goals, opts)
}

// TestWarmQueryRepeatsColdQuery runs every experiment query under every
// strategy on a fresh database, then again: the warm repeat, served
// from the rule set's caches, has the cold query's plan (decisions,
// splits, notes), answers, counts and error.
func TestWarmQueryRepeatsColdQuery(t *testing.T) {
	for _, c := range experimentQueries() {
		for _, strat := range everyStrategy {
			db := cacheDB(t, c.rules, c.facts)
			opts := Options{Strategy: strat, MaxSteps: 200000, MaxTuples: 200000}
			cold := outcome(queryText(t, db, c.query, opts))
			if warm := outcome(queryText(t, db, c.query, opts)); warm != cold {
				t.Errorf("%s under %v: warm query differs from cold\ncold: %s\nwarm: %s", c.name, strat, cold, warm)
			}
		}
	}
}

// decisionOn returns the choice Algorithm 3.1 made for the literal of
// predicate pred.
func decisionOn(t *testing.T, pl *Plan, pred string) cost.Choice {
	t.Helper()
	for _, d := range pl.Decisions {
		if lit, err := lang.ParseQuery("?- " + d.Literal + "."); err == nil && lit.Goals[0].Pred == pred {
			return d.Choice
		}
	}
	t.Fatalf("no decision on %s in %v", pred, pl.Decisions)
	return 0
}

// TestDenserFactsFlipCachedDecision loads same_country facts that make
// the relation dense, which flips scsg's same_country connection from
// follow to split (the paper's T2): the next query replans with the
// new statistics, exactly as a fresh database with the final facts
// does.
func TestDenserFactsFlipCachedDecision(t *testing.T) {
	fam := workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 3})
	q := "?- scsg(" + workload.PersonName(4, 1) + ", Y)."
	db := cacheDB(t, workload.SCSGRules(), fam)
	before := ask(t, db, q, Options{})
	if got := decisionOn(t, before.Plan, "same_country"); got != cost.Follow {
		t.Fatalf("sparse same_country: decision %v, want follow", got)
	}
	var dense [][]term.Term
	for gen := 0; gen <= 4; gen++ {
		for i := 0; i < 1<<gen; i++ {
			for j := 0; j < 1<<gen; j++ {
				dense = append(dense, []term.Term{term.NewSym(workload.PersonName(gen, i)), term.NewSym(workload.PersonName(gen, j))})
			}
		}
	}
	if err := db.LoadTuples("same_country", dense); err != nil {
		t.Fatal(err)
	}
	after := ask(t, db, q, Options{})
	if got := decisionOn(t, after.Plan, "same_country"); got != cost.Split {
		t.Fatalf("dense same_country: decision %v, want split", got)
	}
	fresh := cacheDB(t, workload.SCSGRules(), fam)
	if err := fresh.LoadTuples("same_country", dense); err != nil {
		t.Fatal(err)
	}
	want := ask(t, fresh, q, Options{})
	if !reflect.DeepEqual(after.Plan.Decisions, want.Plan.Decisions) {
		t.Errorf("decisions after the load %v, a fresh database gives %v", after.Plan.Decisions, want.Plan.Decisions)
	}
	SortAnswers(after.Answers)
	SortAnswers(want.Answers)
	if fmt.Sprint(after.Answers) != fmt.Sprint(want.Answers) {
		t.Errorf("answers after the load %v, a fresh database gives %v", after.Answers, want.Answers)
	}
}

const cacheTC = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). f(c, d).
`

// TestNewRuleSeenByNextQuery adds a rule after a query has warmed the
// caches: the next query, under every strategy, uses it.
func TestNewRuleSeenByNextQuery(t *testing.T) {
	for _, strat := range everyStrategy {
		db := load(t, cacheTC)
		if got := ask(t, db, "?- tc(a, Y).", Options{Strategy: strat}); len(got.Answers) != 2 {
			t.Fatalf("%v: %d answers before the new rule, want 2", strat, len(got.Answers))
		}
		if err := db.Load(parse(t, "e(X, Y) :- f(X, Y).")); err != nil {
			t.Fatal(err)
		}
		got := ask(t, db, "?- tc(a, Y).", Options{Strategy: strat})
		SortAnswers(got.Answers)
		if fmt.Sprint(got.Answers) != "[[a b] [a c] [a d]]" {
			t.Errorf("%v: answers after the new rule %v, want tc(a, d) too", strat, got.Answers)
		}
	}
}

// TestStoredIDBFactsBringBridge stores tuples for an IDB predicate after
// a warm magic query: the rewrite must now read them through a bridge
// rule, so the cached one (which had none) is not reused.
func TestStoredIDBFactsBringBridge(t *testing.T) {
	db := load(t, cacheTC)
	for i := 0; i < 2; i++ {
		if got := ask(t, db, "?- tc(a, Y).", Options{Strategy: StrategyMagic}); len(got.Answers) != 2 {
			t.Fatalf("%d answers before the stored facts, want 2", len(got.Answers))
		}
	}
	if err := db.LoadTuples("tc", [][]term.Term{{term.NewSym("c"), term.NewSym("z")}}); err != nil {
		t.Fatal(err)
	}
	got := ask(t, db, "?- tc(a, Y).", Options{Strategy: StrategyMagic})
	SortAnswers(got.Answers)
	// tc(c, z) is stored, so tc(b, z) and tc(a, z) follow.
	if fmt.Sprint(got.Answers) != "[[a b] [a c] [a z]]" {
		t.Errorf("answers with stored tc facts %v, want tc(a, z) too", got.Answers)
	}
}

// TestWarmQueryPassesFaultSites arms the rewrite and chain compile
// fault sites after the caches are warm: the warm query still fails at
// each, and succeeds again once the site is restored.
func TestWarmQueryPassesFaultSites(t *testing.T) {
	injected := errors.New("injected fault")
	for _, row := range []struct {
		site  string
		strat Strategy
	}{
		{faultinject.SiteMagicRewrite, StrategyMagic},
		{faultinject.SiteChainCompile, StrategyMagic},
		{faultinject.SiteChainCompile, StrategyBuffered},
	} {
		db := load(t, sgSrc)
		opts := Options{Strategy: row.strat}
		want := outcome(queryText(t, db, "?- sg(c1, Y).", opts))
		restore := faultinject.Set(row.site, func() error { return injected })
		_, err := queryText(t, db, "?- sg(c1, Y).", opts)
		restore()
		// A failed compile reaches the caller as ErrPlan, with the
		// fault's text.
		if err == nil || !strings.Contains(err.Error(), injected.Error()) {
			t.Errorf("%s under %v: warm query error %v, want the injected fault", row.site, row.strat, err)
		}
		if got := outcome(queryText(t, db, "?- sg(c1, Y).", opts)); got != want {
			t.Errorf("%s under %v: after restore\n%s\nwant\n%s", row.site, row.strat, got, want)
		}
	}
	// Under StrategyAuto a failed rewrite falls back to semi-naive.
	db := load(t, sgSrc)
	ask(t, db, "?- sg(c1, Y).", Options{})
	restore := faultinject.Set(faultinject.SiteMagicRewrite, func() error { return injected })
	res := ask(t, db, "?- sg(c1, Y).", Options{})
	restore()
	if res.Metrics.FallbackFrom != StrategyMagic.String() || len(res.Answers) != 2 {
		t.Errorf("auto with a failing rewrite: fallback from %q, %d answers; want magic and 2", res.Metrics.FallbackFrom, len(res.Answers))
	}
}

// TestCacheUnderConcurrentWrites runs two queriers against a writer
// that lengthens a chain one edge per generation: every answer set is
// the one of the generation the query pinned, under the magic and
// semi-naive plans whose compiled forms the generations share. Run it
// under -race.
func TestCacheUnderConcurrentWrites(t *testing.T) {
	const base, writes = 4, 40
	node := func(i int) term.Term { return term.NewSym(fmt.Sprintf("v%d", i)) }
	db := load(t, "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n")
	var edges [][]term.Term
	for i := 0; i < base; i++ {
		edges = append(edges, []term.Term{node(i), node(i + 1)})
	}
	if err := db.LoadTuples("e", edges); err != nil {
		t.Fatal(err)
	}
	g0 := db.Generation()
	goals, err := lang.ParseQuery("?- tc(v0, Y).")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	done := make(chan struct{})
	for _, strat := range []Strategy{StrategyMagic, StrategySeminaive} {
		wg.Add(1)
		go func(strat Strategy) {
			defer wg.Done()
			for {
				res, err := db.Query(goals.Goals, Options{Strategy: strat})
				if err != nil {
					errs <- fmt.Errorf("%v: %w", strat, err)
					return
				}
				if want := base + int(res.Metrics.Generation-g0); len(res.Answers) != want {
					errs <- fmt.Errorf("%v at generation %d: %d answers, want %d", strat, res.Metrics.Generation, len(res.Answers), want)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(strat)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := base; i < base+writes; i++ {
			if err := db.LoadTuples("e", [][]term.Term{{node(i), node(i + 1)}}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRewriteCacheBound rewrites more goal predicates than the rule set
// caches: past maxRewrites the cache is cleared, and every query still
// answers.
func TestRewriteCacheBound(t *testing.T) {
	const n = maxRewrites + 6
	src := "e(a, b). e(b, c).\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("p%d(X, Y) :- e(X, Y).\n", i)
	}
	db := load(t, src)
	for i := 0; i < n; i++ {
		if got := ask(t, db, fmt.Sprintf("?- p%d(a, Y).", i), Options{Strategy: StrategyMagic}); len(got.Answers) != 1 {
			t.Fatalf("p%d: %d answers, want 1", i, len(got.Answers))
		}
	}
	rs := db.current().rules
	rs.mu.Lock()
	cached := len(rs.rewrites)
	rs.mu.Unlock()
	if cached != n-maxRewrites {
		t.Errorf("%d rewrites cached after %d goals, want %d: the cache is cleared at %d", cached, n, n-maxRewrites, maxRewrites)
	}
	if got := ask(t, db, "?- p0(a, Y).", Options{Strategy: StrategyMagic}); len(got.Answers) != 1 {
		t.Errorf("p0 after the clear: %d answers, want 1", len(got.Answers))
	}
}

// TestReusedRewriteTakesNewStatistics loads a parent fact that changes
// the estimated expansion of scsg's parent literals but none of
// Algorithm 3.1's choices: the next query reuses the cached rewrite,
// and its decisions carry the new estimates, exactly as a fresh
// database's do.
func TestReusedRewriteTakesNewStatistics(t *testing.T) {
	fam := workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 3})
	q := "?- scsg(" + workload.PersonName(4, 1) + ", Y)."
	db := cacheDB(t, workload.SCSGRules(), fam)
	before := ask(t, db, q, Options{})
	cached := func() *rewriteEntry {
		rs := db.current().rules
		rs.mu.Lock()
		defer rs.mu.Unlock()
		for _, ent := range rs.rewrites {
			return ent
		}
		return nil
	}
	ent := cached()
	extra := [][]term.Term{{term.NewSym("newborn"), term.NewSym(workload.PersonName(4, 0))}}
	if err := db.LoadTuples("parent", extra); err != nil {
		t.Fatal(err)
	}
	after := ask(t, db, q, Options{})
	if cached() != ent {
		t.Fatal("the rewrite was not reused")
	}
	fresh := cacheDB(t, workload.SCSGRules(), fam)
	if err := fresh.LoadTuples("parent", extra); err != nil {
		t.Fatal(err)
	}
	want := ask(t, fresh, q, Options{})
	if !reflect.DeepEqual(after.Plan.Decisions, want.Plan.Decisions) {
		t.Errorf("decisions after the load %v, a fresh database gives %v", after.Plan.Decisions, want.Plan.Decisions)
	}
	if reflect.DeepEqual(after.Plan.Decisions, before.Plan.Decisions) {
		t.Errorf("decisions did not change with the statistics: %v", after.Plan.Decisions)
	}
}
