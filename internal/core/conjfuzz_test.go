package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/everr"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// everyStrategy lists every strategy a query can be run under.
var everyStrategy = []Strategy{StrategyAuto, StrategySeminaive, StrategyMagic, StrategyMagicFollow,
	StrategyMagicSplit, StrategyBuffered, StrategyTopDown}

// conjSrc is the program every FuzzConjunctionsAgree query runs over:
// EDB e/2 (a graph with a cycle) and f/2 (some of whose values are
// lists), the transitive t/2 and a derived r/2 to negate.
const conjSrc = `
e(a, b). e(b, c). e(c, a). e(c, d). e(b, x).
f(b, [a]). f(c, [b, c]). f(d, b). f(x, [d]). f(a, a).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
r(X, Y) :- e(X, Z), f(Z, Y).
r(X, Y) :- f(Y, X).
`

// conjPreds and conjArgs are the alphabets decodeConjunction reads. An
// upper-case predicate is the negated goal; `=` is the builtin
// equality and `~` its negation. x, y, z and - are one-element lists
// of X, Y, Z and _; 1 and 2 are the ground lists [a] and [b, c], and 3
// is [_, a], which clashes with [_] though neither is ground.
const (
	conjPreds = "efrtEFRT=~"
	conjArgs  = "XYZ_abcdxyz-123"
)

var conjArgTerms = []string{"X", "Y", "Z", "_", "a", "b", "c", "d", "[X]", "[Y]", "[Z]", "[_]", "[a]", "[b, c]", "[_, a]"}

// conjPick returns the index of b in alphabet, so seeds read as text,
// or else picks an entry by b's value.
func conjPick(alphabet string, b byte) int {
	if i := strings.IndexByte(alphabet, b); i >= 0 {
		return i
	}
	return int(b) % len(alphabet)
}

// decodeConjunction reads a query of one to three goals from data,
// three bytes per goal: a predicate and two arguments, e.g. "eXYEY_"
// is `?- e(X, Y), \+ e(Y, _).`. A byte left over after the last goal
// adds the constraint `X \= Y`. It also returns the query's named
// variables that occur outside a negated goal, in order of first
// appearance: the head of the reference rule.
func decodeConjunction(data []byte) (query string, vars []string) {
	if len(data) > 10 {
		data = data[:10]
	}
	var goals []string
	seen := map[string]bool{}
	note := func(arg string, negated bool) {
		for _, v := range []string{"X", "Y", "Z"} {
			if !negated && !seen[v] && strings.Contains(arg, v) {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	for len(data) >= 3 && len(goals) < 3 {
		p := conjPreds[conjPick(conjPreds, data[0])]
		a1 := conjArgTerms[conjPick(conjArgs, data[1])]
		a2 := conjArgTerms[conjPick(conjArgs, data[2])]
		data = data[3:]
		negated := p >= 'A' && p <= 'Z' || p == '~'
		note(a1, negated)
		note(a2, negated)
		switch {
		case p == '=':
			goals = append(goals, a1+" = "+a2)
		case p == '~':
			goals = append(goals, "\\+ "+a1+" = "+a2)
		case negated:
			goals = append(goals, fmt.Sprintf("\\+ %c(%s, %s)", p-'A'+'a', a1, a2))
		default:
			goals = append(goals, fmt.Sprintf("%c(%s, %s)", p, a1, a2))
		}
	}
	if len(goals) == 0 {
		return "", nil
	}
	if len(data) > 0 {
		goals = append(goals, "X \\= Y")
	}
	return "?- " + strings.Join(goals, ", ") + ".", vars
}

// bindingSet renders a result's answers as a sorted set of bindings
// of vars.
func bindingSet(res *Result, vars []string) string {
	set := map[string]bool{}
	for i := range res.Answers {
		b := res.Row(i)
		var parts []string
		for _, v := range vars {
			parts = append(parts, fmt.Sprintf("%s=%v", v, b[v]))
		}
		set["{"+strings.Join(parts, ",")+"}"] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// sameVarSet reports whether a and b name the same variables, in any
// order.
func sameVarSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// reference is one answer set a query's answers must equal.
type reference struct {
	name string
	res  *Result
}

// filterOracle answers a query of one positive relational goal and
// =/2 and \=/2 constraints, the queries every strategy answers through
// partial.FilterAnswers, without it and without the builtins: it reads
// the goal relation's tuples (the goal with every argument free,
// answered by semi-naive evaluation), unifies the goal with each, and
// checks each constraint with term.Unify. ok is false for any other
// query.
func filterOracle(t *testing.T, db *DB, goals []program.Atom) (*Result, bool) {
	goal, cons, ok := goalAndConstraints(goals)
	if !ok || slices.ContainsFunc(cons, func(c program.Atom) bool { return c.Pred != "=" && c.Pred != "\\=" }) {
		return nil, false
	}
	free := make([]term.Term, goal.Arity())
	for i := range free {
		free[i] = term.NewVar(fmt.Sprintf("A%d", i))
	}
	all, err := db.Query([]program.Atom{program.NewAtom(goal.Pred, free...)}, Options{Strategy: StrategySeminaive})
	if err != nil {
		t.Fatalf("reading %s: %v", goal.Key(), err)
	}
	res := newResult(&Plan{}, goal)
next:
	for _, tup := range all.Answers {
		s := term.NewSubst()
		for i, a := range goal.Args {
			if !term.Unify(s, a, tup[i]) {
				continue next
			}
		}
		for _, c := range cons {
			holds := term.Unify(s.Clone(), c.Args[0], c.Args[1]) == (c.Pred == "=")
			if holds == c.Negated {
				continue next
			}
		}
		res.Answers = append(res.Answers, s.ResolveAll(goal.Args))
	}
	return res, true
}

// FuzzConjunctionsAgree is the differential oracle for queries of
// several goals, negated goals and builtins: every strategy that
// accepts a query reports the same Vars and answers as every other;
// its Vars are the head variables of the query written as a rule,
// ref(Vars…) :- goals., and its answers those semi-naive and top-down
// evaluation give for that rule; a strategy that refuses a query does
// so with a typed error (ErrUnsafe or ErrPlan). The two references run
// the rule's builtins in its body, so neither shares the query's
// constraint filtering (partial.FilterAnswers), which every strategy
// uses for a query of one relational goal and builtins; but both
// refuse a constraint with an anonymous variable, which never becomes
// ground, so such a query is also checked against filterOracle. The
// database is long-lived, so the inputs share its rule set's caches.
// Run with
// `go test -fuzz FuzzConjunctionsAgree ./internal/core`; the seed
// corpus in testdata/fuzz runs in every ordinary test invocation.
func FuzzConjunctionsAgree(f *testing.F) {
	base, err := lang.Parse(conjSrc)
	if err != nil {
		f.Fatal(err)
	}
	db := NewDB()
	if err := db.Load(base.Program); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		query, vars := decodeConjunction(data)
		if query == "" {
			return
		}
		q, err := lang.ParseQuery(query)
		if err != nil {
			t.Fatalf("%s does not parse: %v", query, err)
		}
		head := "ref"
		if len(vars) > 0 {
			head += "(" + strings.Join(vars, ", ") + ")"
		}
		body := strings.TrimSuffix(strings.TrimPrefix(query, "?- "), ".")
		refProg, err := lang.Parse(conjSrc + head + " :- " + body + ".\n")
		if err != nil {
			t.Fatalf("reference rule for %s does not parse: %v", query, err)
		}
		refQuery, err := lang.ParseQuery("?- " + head + ".")
		if err != nil {
			t.Fatal(err)
		}
		// The reference binds every variable the query names outside
		// a negation.
		refDB := NewDB()
		var refs []reference
		if err := refDB.Load(refProg.Program); err == nil {
			for _, strat := range []Strategy{StrategySeminaive, StrategyTopDown} {
				if ref, err := refDB.Query(refQuery.Goals, Options{Strategy: strat}); err == nil {
					refs = append(refs, reference{strat.String() + " reference", ref})
				}
			}
		}
		if ref, ok := filterOracle(t, db, q.Goals); ok {
			refs = append(refs, reference{"filter oracle", ref})
		}

		var first *Result
		var firstFrom Strategy
		for _, strat := range everyStrategy {
			res, err := db.Query(q.Goals, Options{Strategy: strat})
			if err != nil {
				if !errors.Is(err, everr.ErrUnsafe) && !errors.Is(err, everr.ErrPlan) {
					t.Errorf("%v on %s: untyped refusal: %v", strat, query, err)
				}
				continue
			}
			got := bindingSet(res, res.Vars)
			switch {
			case first == nil:
				first, firstFrom = res, strat
			case fmt.Sprint(res.Vars) != fmt.Sprint(first.Vars):
				t.Errorf("%v on %s: Vars %v, but %v reports %v", strat, query, res.Vars, firstFrom, first.Vars)
			case got != bindingSet(first, res.Vars):
				t.Errorf("%v on %s: %s, but %v gives %s", strat, query, got, firstFrom, bindingSet(first, res.Vars))
			}
			if !sameVarSet(res.Vars, vars) {
				t.Errorf("%v on %s reports Vars %v, but the reference rule's head is over %v", strat, query, res.Vars, vars)
			}
			for _, ref := range refs {
				if want := bindingSet(ref.res, res.Vars); got != want {
					t.Errorf("%v on %s: %s, but the %s gives %s", strat, query, got, ref.name, want)
				}
			}
		}
	})
}
