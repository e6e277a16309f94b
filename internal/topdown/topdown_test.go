package topdown

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

func engine(t *testing.T, src string, opts Options) *Engine {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	return New(p, relation.NewCatalog(), opts)
}

func solve(t *testing.T, e *Engine, goalSrc string) [][]term.Term {
	t.Helper()
	q, err := lang.ParseQuery(goalSrc)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := solveGoal(e, q.Goals[0])
	if err != nil {
		t.Fatalf("solve(%s): %v", goalSrc, err)
	}
	return ans
}

// solveGoal answers one goal the way core projects a top-down query:
// the goal's argument vector under each solution, deduplicated, in
// derivation order.
func solveGoal(e *Engine, goal program.Atom) ([][]term.Term, error) {
	sols, err := e.SolveConjunction([]program.Atom{goal})
	if err != nil {
		return nil, err
	}
	var out [][]term.Term
	seen := make(map[string]bool)
	for _, s := range sols {
		args := s.ResolveAll(goal.Args)
		var key []byte
		for _, a := range args {
			key = term.AppendKey(key, a)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, args)
		}
	}
	return out, nil
}

const sortSrc = `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
`

func TestIsortPaperTrace(t *testing.T) {
	// The paper's Example 4.1: ?- isort([5,7,1], Ys) → Ys = [1,5,7].
	e := engine(t, sortSrc, Options{})
	ans := solve(t, e, "?- isort([5,7,1], Ys).")
	if len(ans) != 1 {
		t.Fatalf("answers = %v", ans)
	}
	if !term.Equal(ans[0][1], term.IntList(1, 5, 7)) {
		t.Errorf("Ys = %v, want [1, 5, 7]", ans[0][1])
	}
}

func TestIsortRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(12)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		e := engine(t, sortSrc, Options{})
		goal := program.NewAtom("isort", term.IntList(vals...), term.NewVar("Ys"))
		ans, err := solveGoal(e, goal)
		if err != nil {
			t.Fatalf("n=%d vals=%v: %v", n, vals, err)
		}
		if len(ans) != 1 {
			t.Fatalf("vals=%v: %d answers", vals, len(ans))
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if !term.Equal(ans[0][1], term.IntList(sorted...)) {
			t.Errorf("isort(%v) = %v, want %v", vals, ans[0][1], sorted)
		}
	}
}

const qsortSrc = `
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls),
    qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`

func TestQsortPaperTrace(t *testing.T) {
	// The paper's Example 4.2: ?- qsort([4,9,5], Ys) → Ys = [4,5,9].
	e := engine(t, qsortSrc, Options{})
	ans := solve(t, e, "?- qsort([4,9,5], Ys).")
	if len(ans) != 1 {
		t.Fatalf("answers = %v", ans)
	}
	if !term.Equal(ans[0][1], term.IntList(4, 5, 9)) {
		t.Errorf("Ys = %v, want [4, 5, 9]", ans[0][1])
	}
}

func TestQsortRandomListsWithDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(10)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(6)) // duplicates likely
		}
		e := engine(t, qsortSrc, Options{})
		goal := program.NewAtom("qsort", term.IntList(vals...), term.NewVar("Ys"))
		ans, err := solveGoal(e, goal)
		if err != nil {
			t.Fatalf("vals=%v: %v", vals, err)
		}
		if len(ans) != 1 {
			t.Fatalf("vals=%v: %d answers: %v", vals, len(ans), ans)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if !term.Equal(ans[0][1], term.IntList(sorted...)) {
			t.Errorf("qsort(%v) = %v, want %v", vals, ans[0][1], sorted)
		}
	}
}

const appendSrc = `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`

func TestAppendForward(t *testing.T) {
	e := engine(t, appendSrc, Options{})
	ans := solve(t, e, "?- append([1,2], [3], W).")
	if len(ans) != 1 || !term.Equal(ans[0][2], term.IntList(1, 2, 3)) {
		t.Fatalf("answers = %v", ans)
	}
}

func TestAppendAllSplits(t *testing.T) {
	// append^ffb enumerates all splits of a bound list.
	e := engine(t, appendSrc, Options{})
	ans := solve(t, e, "?- append(U, V, [1,2,3]).")
	if len(ans) != 4 {
		t.Fatalf("got %d splits, want 4: %v", len(ans), ans)
	}
	// Verify one middle split is present.
	found := false
	for _, a := range ans {
		if term.Equal(a[0], term.IntList(1)) && term.Equal(a[1], term.IntList(2, 3)) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing split [1] ++ [2,3]: %v", ans)
	}
}

func TestAppendInfiniteModeFlounders(t *testing.T) {
	e := engine(t, appendSrc, Options{})
	q, _ := lang.ParseQuery("?- append(U, [3], W).")
	_, err := solveGoal(e, q.Goals[0])
	if !errors.Is(err, ErrFlounder) {
		t.Errorf("err = %v, want ErrFlounder", err)
	}
}

const travelSrc = `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
flight(101, yvr, 900, yyc, 1100, 200).
flight(202, yyc, 1200, yow, 1800, 300).
flight(303, yvr, 800, yow, 1600, 600).
flight(404, yyc, 1000, yow, 1500, 350).
`

func TestTravelChainSplit(t *testing.T) {
	e := engine(t, travelSrc, Options{})
	// All trips departing yvr: two direct-ish routes plus the
	// connection 101→202 (1200 > 1100 ✓); 101→404 fails (1000 < 1100).
	ans := solve(t, e, "?- travel(L, yvr, DT, A, AT, F).")
	if len(ans) != 3 {
		t.Fatalf("got %d itineraries, want 3: %v", len(ans), ans)
	}
	// Find the connecting itinerary and check its route and fare.
	found := false
	for _, a := range ans {
		if term.Equal(a[0], term.List(term.NewInt(101), term.NewInt(202))) {
			found = true
			if !term.Equal(a[5], term.NewInt(500)) {
				t.Errorf("fare = %v, want 500", a[5])
			}
			if !term.Equal(a[3], term.NewSym("yow")) {
				t.Errorf("arrival = %v, want yow", a[3])
			}
		}
	}
	if !found {
		t.Errorf("connecting itinerary [101, 202] missing: %v", ans)
	}
}

const sgSrc = `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
parent(c1, p1). parent(c2, p2).
parent(p1, g1). parent(p2, g1).
sibling(p1, p2). sibling(g1, g1).
`

func TestSGDifferentialWithSeminaive(t *testing.T) {
	// Top-down tabled answers must match bottom-up semi-naive on the
	// same program.
	res, err := lang.Parse(sgSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)

	cat := relation.NewCatalog()
	if _, err := seminaive.Eval(p, cat, seminaive.Options{}); err != nil {
		t.Fatal(err)
	}
	bottomUp := cat.Get("sg")

	e := New(p, relation.NewCatalog(), Options{})
	for _, start := range []string{"c1", "c2", "p1", "g1"} {
		goal := program.NewAtom("sg", term.NewSym(start), term.NewVar("Y"))
		ans, err := solveGoal(e, goal)
		if err != nil {
			t.Fatalf("sg(%s, Y): %v", start, err)
		}
		want := bottomUp.Select(map[int]term.Term{0: term.NewSym(start)})
		if len(ans) != want.Len() {
			t.Errorf("sg(%s,Y): topdown %d answers, bottom-up %d", start, len(ans), want.Len())
			continue
		}
		for _, a := range ans {
			if !want.Contains(relation.Tuple(a)) {
				t.Errorf("topdown extra answer sg%v", a)
			}
		}
	}
}

func TestCyclicDataTerminates(t *testing.T) {
	e := engine(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, a).
`, Options{})
	ans := solve(t, e, "?- tc(a, Y).")
	if len(ans) != 3 {
		t.Fatalf("tc(a,Y) = %v, want a,b,c reachable", ans)
	}
}

func TestLeftRecursionTerminates(t *testing.T) {
	e := engine(t, `
tc(X, Y) :- tc(X, Z), e(Z, Y).
tc(X, Y) :- e(X, Y).
e(a, b). e(b, c).
`, Options{})
	ans := solve(t, e, "?- tc(a, Y).")
	if len(ans) != 2 {
		t.Fatalf("left-recursive tc(a,Y) = %v", ans)
	}
}

// TestNegationInRuleWaitsForGrowingTable checks that a negation in a
// rule body is not decided on a table still growing within the pass:
// the rule's answers are tabled, so a wrong one would stay. tc(c, c)
// holds only through the cycle c -> a -> b -> c, which is in progress
// when w/1 first negates it.
func TestNegationInRuleWaitsForGrowingTable(t *testing.T) {
	e := engine(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, a). e(c, d). e(b, x).
w(X) :- \+ tc(X, c), tc(c, X).
`, Options{})
	if got := fmt.Sprint(solve(t, e, "?- w(X).")); got != "[[d] [x]]" {
		t.Errorf("w(X) = %s, want [[d] [x]]", got)
	}
}

func TestStepBudget(t *testing.T) {
	e := engine(t, sortSrc, Options{MaxSteps: 10})
	q, _ := lang.ParseQuery("?- isort([5,7,1,2,9,4], Ys).")
	_, err := solveGoal(e, q.Goals[0])
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestGroundQuerySucceedsOrFails(t *testing.T) {
	e := engine(t, sortSrc, Options{})
	ans := solve(t, e, "?- isort([2,1], [1,2]).")
	if len(ans) != 1 {
		t.Errorf("ground true query: %v", ans)
	}
	ans = solve(t, e, "?- isort([2,1], [2,1]).")
	if len(ans) != 0 {
		t.Errorf("ground false query: %v", ans)
	}
}

func TestTableReuse(t *testing.T) {
	e := engine(t, sgSrc, Options{})
	solve(t, e, "?- sg(c1, Y).")
	before := e.Stats().Steps
	solve(t, e, "?- sg(c1, Y).")
	after := e.Stats().Steps
	if after-before > before {
		t.Errorf("second identical query did %d steps (first %d); table not reused", after-before, before)
	}
}

func TestStatsPopulated(t *testing.T) {
	e := engine(t, sortSrc, Options{})
	solve(t, e, "?- isort([5,7,1], Ys).")
	st := e.Stats()
	if st.Steps == 0 || st.Calls == 0 || st.Passes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNestedListsSortStability(t *testing.T) {
	// isort of an already sorted list is identity.
	e := engine(t, sortSrc, Options{})
	for n := 0; n <= 8; n++ {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		goal := program.NewAtom("isort", term.IntList(vals...), term.NewVar("Ys"))
		ans, err := solveGoal(e, goal)
		if err != nil || len(ans) != 1 {
			t.Fatalf("n=%d: ans=%v err=%v", n, ans, err)
		}
		if !term.Equal(ans[0][1], term.IntList(vals...)) {
			t.Errorf("n=%d: %v", n, ans[0][1])
		}
	}
}

func TestDeterministicAnswerOrder(t *testing.T) {
	mk := func() string {
		e := engine(t, sgSrc, Options{})
		ans := solve(t, e, "?- sg(c1, Y).")
		return fmt.Sprint(ans)
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("nondeterministic answers:\n%s\nvs\n%s", a, b)
	}
}

// tcSrc is a cyclic graph with a tail, for tabled and negated queries.
const tcSrc = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, a). e(c, d). e(d, e). e(f, a).
node(a). node(b). node(c). node(d). node(e). node(f).
unreach(X) :- node(X), \+ tc(a, X).
`

// TestCountsPinned pins the engine's effort counts: a change to the
// scheduler, the tables or the pass loop moves one of them. A ground
// query list is one term, so its cells cost no steps.
func TestCountsPinned(t *testing.T) {
	list := func(n int, f func(i int) int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = strconv.Itoa(f(i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	id := func(i int) int { return i }
	scramble := func(i int) int { return (i*37 + 11) % 101 }
	cases := []struct {
		src, query string
		want       Stats
	}{
		{qsortSrc, "?- append(" + list(4, id) + ", [-1], W).", Stats{Steps: 20, Calls: 5, Passes: 1}},
		{qsortSrc, "?- append(" + list(16, id) + ", [-1], W).", Stats{Steps: 68, Calls: 17, Passes: 1}},
		{qsortSrc, "?- append(" + list(64, id) + ", [-1], W).", Stats{Steps: 260, Calls: 65, Passes: 1}},
		{sortSrc, "?- isort(" + list(4, scramble) + ", Ys).", Stats{Steps: 54, Calls: 11, Passes: 1}},
		{sortSrc, "?- isort(" + list(16, scramble) + ", Ys).", Stats{Steps: 639, Calls: 87, Passes: 1}},
		{sortSrc, "?- isort(" + list(64, scramble) + ", Ys).", Stats{Steps: 9471, Calls: 1111, Passes: 1}},
		{qsortSrc, "?- qsort(" + list(4, scramble) + ", Ys).", Stats{Steps: 97, Calls: 23, TableHits: 4, Passes: 1}},
		{qsortSrc, "?- qsort(" + list(16, scramble) + ", Ys).", Stats{Steps: 626, Calls: 129, TableHits: 16, Passes: 1}},
		{qsortSrc, "?- qsort(" + list(64, scramble) + ", Ys).", Stats{Steps: 3544, Calls: 683, TableHits: 64, Passes: 1}},
		// One rule body under two adornments (bbf, then ffb): its
		// chain-split picks differ, so a pick memo must key on them.
		{qsortSrc, "?- append([0,1,2], [3], W), append(X, Y, W).", Stats{Steps: 46, Calls: 9, Passes: 1}},
		{tcSrc, "?- tc(a, Y).", Stats{Steps: 48, Calls: 18, Passes: 3}},
		// A negation read off a growing table completes it in place, so
		// the query needs no second pass.
		{tcSrc, "?- e(X, Y), \\+ tc(Y, X).", Stats{Steps: 97, Calls: 34, Passes: 1}},
		{tcSrc, "?- unreach(X).", Stats{Steps: 120, Calls: 43, Passes: 1}},
	}
	for _, c := range cases {
		e := engine(t, c.src, Options{})
		q, err := lang.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SolveConjunction(q.Goals); err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		got := *e.Stats()
		got.MaxDepthAt = 0
		if got != c.want {
			t.Errorf("%.40s: got %+v, want %+v", c.query, got, c.want)
		}
	}
}

// TestTopDownBytesPerStep bounds the bytes a top-down run allocates per
// resolution step (Stats.Steps) on the paper's list programs. A step
// binds slots of a frame and records them on a trail, so what it
// allocates is the terms it builds, table entries and answers, and the
// stack's growth. Each row solves a seeded random list on a fresh
// engine and keeps the least of three runs. The bounds are 20% over
// the measured 96, 81 and 201 B/step.
func TestTopDownBytesPerStep(t *testing.T) {
	rows := []struct {
		name, src, pred string
		n               int
		max             float64
	}{
		{"qsort", qsortSrc, "qsort", 256, 115},
		{"isort", sortSrc, "isort", 96, 97},
		{"append", qsortSrc, "append", 1024, 241},
	}
	var report []string
	failed := false
	for _, r := range rows {
		list := term.IntList(workload.RandomInts(r.n, 1<<20, int64(r.n))...)
		args := []term.Term{list, term.NewVar("Ys")}
		if r.pred == "append" {
			args = []term.Term{list, term.IntList(-1), term.NewVar("Ys")}
		}
		goal := program.NewAtom(r.pred, args...)
		best := math.Inf(1)
		for run := 0; run < 3; run++ {
			e := engine(t, r.src, Options{})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sols, err := e.SolveConjunction([]program.Atom{goal})
			runtime.ReadMemStats(&after)
			if err != nil || len(sols) != 1 {
				t.Fatalf("%s n=%d: %d solutions, error %v", r.name, r.n, len(sols), err)
			}
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(e.Stats().Steps))
		}
		report = append(report, fmt.Sprintf("%s n=%d: %.0f B/step (max %.0f)", r.name, r.n, best, r.max))
		failed = failed || best > r.max
	}
	t.Log(strings.Join(report, "; "))
	if failed {
		t.Errorf("bytes per step over bound: %s", strings.Join(report, "; "))
	}
}
