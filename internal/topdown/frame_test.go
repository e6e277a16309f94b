package topdown

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"chainsplit/internal/builtin"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// TestFrameSemantics pins the sorted answers and effort counts of the
// cases a binding store must get right beyond ground lists: repeated
// free variables in a call, a variable bound to a compound that is
// completed later, a tabled answer that keeps a free variable, a
// negation with a local variable, a builtin binding an output, a call
// on cyclic data that needs several passes, and the text of a
// flounder error or a builtin's error. Answers are the query's
// variables under each solution, rendered and sorted.
func TestFrameSemantics(t *testing.T) {
	cases := []struct {
		name, src, query string
		want             string // sorted answers joined by "; ", or the error text
		stats            Stats
	}{
		{name: "repeated free variable", src: appendSrc, query: "?- append(X, X, [1,2,1,2]).",
			want:  "X=[1, 2]",
			stats: Stats{Steps: 30, Calls: 5, Passes: 1}},
		{name: "repeated free variable, no answer", src: appendSrc, query: "?- append(X, X, [1,2,1]).",
			want:  "",
			stats: Stats{Steps: 22, Calls: 4, Passes: 1}},
		{name: "compound bound later", src: "", query: "?- X = f(Y), Y = 1.",
			want:  "X=f(1), Y=1",
			stats: Stats{Steps: 2, Passes: 1}},
		{name: "compound bound later in a rule", src: "p(X, Y) :- X = f(Y), Y = 1.", query: "?- p(X, Y).",
			want:  "X=f(1), Y=1",
			stats: Stats{Steps: 3, Calls: 1, Passes: 1}},
		{name: "tabled free variable", src: boxSrc, query: "?- boxed(1, B).",
			want:  "B=box(1, _0)",
			stats: Stats{Steps: 2, Calls: 1, Passes: 1}},
		{name: "tabled free variable bound by caller", src: boxSrc, query: "?- boxed(1, B), B = box(1, 7).",
			want:  "B=box(1, 7)",
			stats: Stats{Steps: 3, Calls: 1, Passes: 1}},
		{name: "tabled free variable renamed apart", src: boxSrc, query: "?- boxed(1, B), boxed(1, C), B = box(1, 7).",
			want:  "B=box(1, 7), C=box(1, _0)",
			stats: Stats{Steps: 4, Calls: 2, TableHits: 1, Passes: 1}},
		{name: "id after binding", src: "id(X, X).", query: "?- id(Z, W), Z = 1.",
			want:  "W=1, Z=1",
			stats: Stats{Steps: 3, Calls: 1, Passes: 1}},
		{name: "negation local variable", src: negSrc, query: "?- e(X, Y), \\+ e(Y, _).",
			want:  "X=b, Y=x; X=c, Y=d",
			stats: Stats{Steps: 9, Passes: 1}},
		{name: "negation local variable in a list", src: negSrc, query: "?- g(X).",
			want:  "X=b; X=c",
			stats: Stats{Steps: 10, Calls: 1, Passes: 1}},
		{name: "plus binds output", src: "", query: "?- plus(2, X, 5).",
			want:  "X=3",
			stats: Stats{Steps: 1, Passes: 1}},
		{name: "plus binds output in a rule", src: "succ(X, Y) :- plus(X, 1, Y).", query: "?- succ(4, Y), succ(Y, Z).",
			want:  "Y=5, Z=6",
			stats: Stats{Steps: 4, Calls: 2, Passes: 1}},
		{name: "cyclic tc", src: tcSrc, query: "?- tc(b, Y).",
			want:  "Y=a; Y=b; Y=c; Y=d; Y=e",
			stats: Stats{Steps: 48, Calls: 18, Passes: 3}},
		{name: "cyclic left-recursive tc", src: leftTCSrc, query: "?- tc(c, Y).",
			want:  "Y=a; Y=b; Y=c; Y=d",
			stats: Stats{Steps: 21, Calls: 8, Passes: 4}},
		{name: "flounder message", src: "p(X, Y) :- plus(X, 1, Y).", query: "?- p(X, Y).",
			want:  "topdown: goal floundered (no finitely evaluable literal): query is not safely evaluable: p(X, Y)",
			stats: Stats{Passes: 1}},
		{name: "flounder message with bindings", src: "p(X, Y) :- plus(X, 1, Y).", query: "?- W = 1, p(X, Y), X \\= W.",
			want:  "topdown: goal floundered (no finitely evaluable literal): query is not safely evaluable: p(X, Y), X \\= 1",
			stats: Stats{Steps: 1, Passes: 1}},
		{name: "facts and rules of one predicate", src: "p(1). p(X) :- q(X). q(2). q(1).", query: "?- p(X).",
			want:  "X=1; X=2",
			stats: Stats{Steps: 2, Calls: 1, Passes: 1}},
		{name: "builtin type error", src: "", query: "?- X = a, X < 1.",
			want:  "topdown: a < 1: builtin: type error: a < 1",
			stats: Stats{Steps: 2, Passes: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engine(t, c.src, Options{})
			q, err := lang.ParseQuery(c.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := frameAnswers(e, q.Goals)
			if err != nil {
				got = err.Error()
			}
			st := *e.Stats()
			st.MaxDepthAt = 0
			if got != c.want {
				t.Errorf("answers = %q, want %q", got, c.want)
			}
			if st != c.stats {
				t.Errorf("stats = %+v, want %+v", st, c.stats)
			}
		})
	}
}

// frameAnswers solves goals and renders each solution as the query's
// named variables bound under it, sorted and deduplicated. A free
// variable in a binding reads _0, _1, … by first occurrence in its row,
// so the rendering does not depend on how the engine names it.
func frameAnswers(e *Engine, goals []program.Atom) (string, error) {
	sols, err := e.SolveConjunction(goals)
	if err != nil {
		return "", err
	}
	var names []string
	for _, g := range goals {
		for _, v := range term.SortedVarNames(g.Vars()) {
			if !strings.HasPrefix(v, "_") && !contains(names, v) {
				names = append(names, v)
			}
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range sols {
		parts := make([]string, len(names))
		free := map[string]term.Term{}
		for i, n := range names {
			parts[i] = n + "=" + renameFree(s.Resolve(term.NewVar(n)), free).String()
		}
		row := strings.Join(parts, ", ")
		if !seen[row] {
			seen[row] = true
			out = append(out, row)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; "), nil
}

func renameFree(t term.Term, free map[string]term.Term) term.Term {
	switch t := t.(type) {
	case term.Var:
		if _, ok := free[t.Name]; !ok {
			free[t.Name] = term.NewVar("_" + strconv.Itoa(len(free)))
		}
		return free[t.Name]
	case term.Comp:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameFree(a, free)
		}
		return term.NewComp(t.Functor, args...)
	}
	return t
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// boxSrc's boxed/2 answers box(X, V) with V free: the builtin pairbox
// binds its output to a compound holding a fresh variable.
const boxSrc = `boxed(X, B) :- pairbox(X, B).`

const negSrc = `
e(a, b). e(b, c). e(c, d). e(b, x).
f(b, [1]). f(c, [2, 3]).
g(X) :- e(X, Y), \+ f(Y, [_]).
`

const leftTCSrc = `
tc(X, Y) :- tc(X, Z), e(Z, Y).
tc(X, Y) :- e(X, Y).
e(a, b). e(b, c). e(c, a). e(c, d).
`

func init() {
	err := builtin.Register("pairbox", 2, []string{"bf"}, func(s term.Subst, args []term.Term) ([]term.Subst, error) {
		x := s.Resolve(args[0])
		if !x.Ground() {
			return nil, builtin.ErrInsufficient
		}
		sol := s.Clone()
		if !term.Unify(sol, args[1], term.NewComp("box", x, term.NewVar("_Box"))) {
			return nil, nil
		}
		return []term.Subst{sol}, nil
	})
	if err != nil {
		panic(err)
	}
}
