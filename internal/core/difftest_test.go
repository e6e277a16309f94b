package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
)

// genProgram generates a random safe function-free Datalog program:
// a handful of EDB relations with random facts, IDB predicates with
// random (possibly mutually recursive) rules whose head variables all
// occur in positive body literals, and optionally stratified negation
// on EDB predicates.
func genProgram(rng *rand.Rand, withNegation bool) string {
	var b strings.Builder
	consts := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	edb := []string{"e1", "e2"}
	idb := []string{"p", "q"}

	// Facts: sparse random graphs.
	for _, e := range edb {
		nFacts := 3 + rng.Intn(6)
		for i := 0; i < nFacts; i++ {
			fmt.Fprintf(&b, "%s(%s, %s).\n", e, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
		}
	}

	vars := []string{"X", "Y", "Z", "W"}
	anyPred := append(append([]string{}, edb...), idb...)

	// A derived-but-nonrecursive predicate available for negation:
	// negating it exercises the stratum materialization phase.
	if withNegation {
		fmt.Fprintf(&b, "r(X, Y) :- e1(X, Z), e2(Z, Y).\n")
		fmt.Fprintf(&b, "r(X, Y) :- e2(Y, X).\n")
	}

	for _, head := range idb {
		nRules := 1 + rng.Intn(3)
		for r := 0; r < nRules; r++ {
			nLits := 1 + rng.Intn(3)
			var lits []string
			bodyVars := map[string]bool{}
			for l := 0; l < nLits; l++ {
				pred := anyPred[rng.Intn(len(anyPred))]
				a1 := vars[rng.Intn(len(vars))]
				a2 := vars[rng.Intn(len(vars))]
				// Occasionally a constant argument (selection).
				if rng.Intn(4) == 0 {
					a1 = consts[rng.Intn(len(consts))]
				}
				lits = append(lits, fmt.Sprintf("%s(%s, %s)", pred, a1, a2))
				for _, v := range []string{a1, a2} {
					if v[0] >= 'W' && v[0] <= 'Z' {
						bodyVars[v] = true
					}
				}
			}
			var bound []string
			for v := range bodyVars {
				bound = append(bound, v)
			}
			sort.Strings(bound)
			if len(bound) == 0 {
				continue // all-constant body: skip, heads need vars
			}
			// Optional stratified negation over already-bound
			// variables: an EDB literal, or the derived r/2 (which
			// forces the materialization phase of stratified magic).
			if withNegation && rng.Intn(3) == 0 {
				v1 := bound[rng.Intn(len(bound))]
				v2 := bound[rng.Intn(len(bound))]
				negPreds := append([]string{"r"}, edb...)
				lits = append(lits, fmt.Sprintf("\\+ %s(%s, %s)", negPreds[rng.Intn(len(negPreds))], v1, v2))
			}
			h1 := bound[rng.Intn(len(bound))]
			h2 := bound[rng.Intn(len(bound))]
			fmt.Fprintf(&b, "%s(%s, %s) :- %s.\n", head, h1, h2, strings.Join(lits, ", "))
		}
	}
	return b.String()
}

// answerSet canonicalizes a result for comparison.
func answerSet(res *Result) string {
	var keys []string
	for _, a := range res.Answers {
		var parts []string
		for _, t := range a {
			parts = append(parts, t.String())
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestDifferentialRandomPrograms pins every applicable strategy to the
// same answer set on randomly generated function-free programs.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		src := genProgram(rng, false)
		res, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		// Ensure p/2 is actually defined.
		if len(res.Program.RulesFor("p/2")) == 0 {
			continue
		}
		queries := []string{"?- p(c0, Y).", "?- p(X, Y).", "?- p(c1, c2).", "?- p(X, X)."}
		q := queries[trial%len(queries)]

		strategies := []Strategy{
			StrategySeminaive, StrategyTopDown,
			StrategyMagicFollow, StrategyMagic, StrategyMagicSplit,
		}
		var baseline string
		var baseStrategy Strategy
		for _, strat := range strategies {
			db := NewDB()
			db.Load(res.Program)
			goals, err := lang.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			out, err := db.Query(goals.Goals, Options{Strategy: strat, MaxTuples: 500000, MaxIterations: 10000})
			if err != nil {
				t.Fatalf("trial %d %v on %s: %v\nprogram:\n%s", trial, strat, q, err, src)
			}
			got := answerSet(out)
			if strat == strategies[0] {
				baseline, baseStrategy = got, strat
				continue
			}
			if got != baseline {
				t.Fatalf("trial %d: %v disagrees with %v on %s\n%v\nvs\n%v\nprogram:\n%s",
					trial, strat, baseStrategy, q, got, baseline, src)
			}
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("only %d/%d generated programs were usable", checked, trials)
	}
	t.Logf("differential-checked %d random programs", checked)
}

// TestDifferentialRandomProgramsWithNegation compares the two engines
// that support stratified negation.
func TestDifferentialRandomProgramsWithNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		src := genProgram(rng, true)
		res, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		if len(res.Program.RulesFor("p/2")) == 0 {
			continue
		}
		// Negation on EDB predicates only → always stratified.
		g := program.NewDepGraph(program.Rectify(res.Program))
		if err := g.CheckStratified(); err != nil {
			t.Fatalf("generator produced unstratified program: %v\n%s", err, src)
		}
		for _, q := range []string{"?- p(X, Y).", "?- p(X, X)."} {
			var baseline string
			strategies := []Strategy{StrategySeminaive, StrategyTopDown, StrategyMagicFollow, StrategyMagic}
			for i, strat := range strategies {
				db := NewDB()
				db.Load(res.Program)
				goals, _ := lang.ParseQuery(q)
				out, err := db.Query(goals.Goals, Options{Strategy: strat, MaxTuples: 500000})
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v\nprogram:\n%s", trial, strat, q, err, src)
				}
				got := answerSet(out)
				if i == 0 {
					baseline = got
				} else if got != baseline {
					t.Fatalf("trial %d: %v disagrees with seminaive under negation on %s\n%v\nvs\n%v\nprogram:\n%s",
						trial, strat, q, got, baseline, src)
				}
			}
		}
		checked++
	}
	t.Logf("differential-checked %d random negation programs", checked)
}

// TestStrategiesAgreeOnGoalShape pins every strategy that accepts a
// query to the top-down answers on goals whose shape the ground
// arguments alone do not express: a repeated variable, and a partly
// ground compound.
func TestStrategiesAgreeOnGoalShape(t *testing.T) {
	const src = `
e(a, a). e(a, b). e(b, b). e(c, [1, 2]). e(d, foo).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
p(X, Y) :- e(X, Y).
app([], L, L).
app([X|L1], L2, [X|L3]) :- app(L1, L2, L3).
`
	// Each `_` is its own variable, reported in no binding; a variable
	// local to a negated literal reads "for no value".
	const anonSrc = `
e(a, b). e(b, c). e(c, c).
q(X) :- e(X, _), e(_, X).
`
	const negSrc = `
e(a, b). e(b, c). e(c, d). e(b, x).
p(X) :- e(X, Y), \+ e(Y, _).
source(X) :- e(X, _), \+ e(_, X).
`
	all := []Strategy{StrategyAuto, StrategySeminaive, StrategyMagic, StrategyMagicFollow, StrategyMagicSplit, StrategyTopDown}
	cases := []struct {
		src         string // the program; src when empty
		query, want string
		strategies  []Strategy // strategies that must accept the query
	}{
		{"", "?- t(X, X).", "a,a;b,b", all},
		{"", "?- p(X, [H|T]).", "c,[1, 2]", all},
		{"", "?- app(X, X, [1,2,1,2]).", "[1, 2],[1, 2],[1, 2, 1, 2]", []Strategy{StrategyAuto, StrategyBuffered, StrategyMagic, StrategyMagicFollow, StrategyMagicSplit, StrategyTopDown}},
		{anonSrc, "?- e(_, _).", "a,b;b,c;c,c", all},
		{anonSrc, "?- q(X).", "b;c", all},
		{negSrc, "?- e(X, Y), \\+ e(Y, _).", "b,x;c,d", all},
		{negSrc, "?- p(X).", "b;c", all},
		{negSrc, "?- source(X).", "a", all},
		{negSrc, "?- X = d, \\+ e(X, Z).", "d", all},
	}
	for _, c := range cases {
		for _, strat := range c.strategies {
			if c.src == "" {
				c.src = src
			}
			db := load(t, c.src)
			q, err := lang.ParseQuery(c.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(q.Goals, Options{Strategy: strat})
			if err != nil {
				t.Errorf("%v on %s: %v", strat, c.query, err)
				continue
			}
			if got := answerSet(res); got != c.want {
				t.Errorf("%v on %s: got %q, want %q", strat, c.query, got, c.want)
			}
			for _, v := range res.Vars {
				if strings.HasPrefix(v, "_") {
					t.Errorf("%v on %s: anonymous variable %s is reported", strat, c.query, v)
				}
			}
			// The dumped database means the same.
			res, err = load(t, db.Dump()).Query(q.Goals, Options{Strategy: strat})
			if err != nil || answerSet(res) != c.want {
				t.Errorf("%v on %s after Dump: %v, %v", strat, c.query, res, err)
			}
		}
	}
}
