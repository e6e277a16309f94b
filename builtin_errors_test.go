package chainsplit

import (
	"fmt"
	"strings"
	"testing"

	"chainsplit/internal/builtin"
	"chainsplit/internal/chain"
	"chainsplit/internal/counting"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
)

// The user builtins of TestBuiltinFailuresPinned. Each is registered
// once per process (the registry is global).
func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// pin_liar(X, Y) declares bf finite but always reports itself
	// insufficiently instantiated.
	must(RegisterBuiltin("pin_liar", 2, []string{"bf"}, func(s Subst, args []Term) ([]Subst, error) {
		return nil, ErrBuiltinInsufficient
	}))
	// pin_keep(X, Y) succeeds once and binds nothing, leaving Y unbound.
	must(RegisterBuiltin("pin_keep", 2, []string{"bf"}, func(s Subst, args []Term) ([]Subst, error) {
		return []Subst{s.Clone()}, nil
	}))
	// pin_box(X, B) binds B to box(X, V) for a fresh variable V.
	must(RegisterBuiltin("pin_box", 2, []string{"bf"}, func(s Subst, args []Term) ([]Subst, error) {
		x := s.Resolve(args[0])
		if !x.Ground() {
			return nil, ErrBuiltinInsufficient
		}
		sol := s.Clone()
		if !Unify(sol, args[1], term.NewComp("box", x, term.NewVar("_Box"))) {
			return nil, nil
		}
		return []Subst{sol}, nil
	}))
	// pin_fill(X, W) reads W, a partly bound w(A, Q): A must be bound,
	// and Q becomes X + A.
	must(RegisterBuiltin("pin_fill", 2, []string{"bf"}, func(s Subst, args []Term) ([]Subst, error) {
		x := s.Resolve(args[0])
		w, isComp := s.Resolve(args[1]).(term.Comp)
		if !x.Ground() || !isComp || len(w.Args) != 2 || !w.Args[0].Ground() {
			return nil, ErrBuiltinInsufficient
		}
		xi, xok := x.(term.Int)
		ai, aok := w.Args[0].(term.Int)
		if !xok || !aok {
			return nil, fmt.Errorf("%w: pin_fill of %s", builtin.ErrType, x)
		}
		sol := s.Clone()
		if !Unify(sol, w.Args[1], Int(xi.V+ai.V)) {
			return nil, nil
		}
		return []Subst{sol}, nil
	}))
}

const pinnedBuiltinSrc = `
e(1, 2). e(2, 3). e(a, 3).
n(1). n(2).
lt(X, Y) :- e(X, Y), X < Y.
lied(X, Y) :- n(X), pin_liar(X, Y).
kept(X, Y) :- n(X), pin_keep(X, Y).
wrapped(X, Y) :- n(X), pin_keep(X, w(X, Y)).
boxed(X, B) :- n(X), pin_box(X, B).
ident(X, B) :- n(X), pin_box(X, B), B = box(X, X).
filled(X, Y) :- n(X), pin_fill(X, w(X, Y)).
loose(X, Y) :- n(X).
cnt([], 0).
cnt([X|Xs], N) :- cnt(Xs, M), plus(M, X, N).
liarc([], 0).
liarc([X|Xs], N) :- liarc(Xs, M), pin_liar(M, N).
keptc([], 0).
keptc([X|Xs], N) :- keptc(Xs, M), pin_keep(M, N).
boxc([], 0).
boxc([X|Xs], N) :- boxc(Xs, M), pin_box(M, B), B = box(M, M), plus(M, X, N).
fillc([], 0).
fillc([X|Xs], N) :- fillc(Xs, M), pin_fill(X, w(M, N)).
`

// TestBuiltinFailuresPinned pins the exact text of each builtin failure
// (insufficiently instantiated, type error, a user builtin leaving an
// output unbound, a non-ground head, a residual constraint's error)
// under the engines that report it, and the answers of user builtins
// that read a partly bound compound or return a fresh variable.
func TestBuiltinFailuresPinned(t *testing.T) {
	db := Open()
	defer db.Close()
	mustExec(t, db, pinnedBuiltinSrc)
	cases := []struct {
		query string
		strat Strategy
		want  string // the error text, or the answers as [a b];[c d]
	}{
		{"?- lt(X, Y).", StrategySeminaive,
			"builtin: type error: a < 3 [strategy=seminaive pred=lt/2]"},
		{"?- lt(X, Y).", StrategyTopDown,
			"topdown: a < 3: builtin: type error: a < 3 [strategy=topdown-chain-split pred=lt/2 iteration=5]"},
		{"?- cnt([1, a], N).", StrategyBuffered,
			"topdown: plus(0, a, $0): builtin: type error: plus argument 2 is a [strategy=topdown-chain-split pred=cnt/2 iteration=7]"},
		{"?- cnt([1, a], N).", StrategyTopDown,
			"topdown: plus(0, a, $0): builtin: type error: plus argument 2 is a [strategy=topdown-chain-split pred=cnt/2 iteration=7]"},
		{"?- lied(X, Y).", StrategySeminaive,
			"seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: pin_liar(1, Y) in lied(X, Y) :- n(X), pin_liar(X, Y). [strategy=seminaive pred=lied/2]"},
		{"?- lied(X, Y).", StrategyTopDown,
			"topdown: pin_liar(1, $1): builtin: insufficiently instantiated arguments [strategy=topdown-chain-split pred=lied/2 iteration=3]"},
		{"?- liarc([1, 2], N).", StrategyBuffered,
			"topdown: pin_liar(0, $0): builtin: insufficiently instantiated arguments [strategy=topdown-chain-split pred=liarc/2 iteration=7]"},
		{"?- kept(X, Y).", StrategySeminaive,
			"seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: pin_keep(1, Y) left Y unbound in kept(X, Y) :- n(X), pin_keep(X, Y). [strategy=seminaive pred=kept/2]"},
		{"?- kept(X, Y).", StrategyTopDown,
			"[1 _T'1];[2 _T'2]"},
		{"?- keptc([1, 2], N).", StrategyBuffered,
			"topdown: goal floundered (no finitely evaluable literal): query is not safely evaluable: pin_keep($6, $0) [strategy=topdown-chain-split pred=keptc/2 iteration=7]"},
		{"?- keptc([1, 2], N).", StrategyTopDown,
			"topdown: goal floundered (no finitely evaluable literal): query is not safely evaluable: pin_keep($6, $0) [strategy=topdown-chain-split pred=keptc/2 iteration=7]"},
		{"?- wrapped(X, Y).", StrategySeminaive,
			"seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: pin_keep(1, w(1, Y)) left Y unbound in wrapped(X, Y) :- n(X), pin_keep(X, w(X, Y)). [strategy=seminaive pred=wrapped/2]"},
		{"?- wrapped(X, Y).", StrategyTopDown,
			"[1 _T'1];[2 _T'2]"},
		{"?- loose(X, Y).", StrategySeminaive,
			"query is not finitely evaluable: loose/2 under adornment ff (loose/2^ff is infinitely evaluable: rule \"loose(X, Y) :- n(X).\": head variable Y is never bound) [strategy=plan pred=loose/2]"},
		{"?- loose(X, Y).", StrategyTopDown,
			"query is not finitely evaluable: loose/2 under adornment ff (loose/2^ff is infinitely evaluable: rule \"loose(X, Y) :- n(X).\": head variable Y is never bound) [strategy=plan pred=loose/2]"},
		{"?- boxed(X, B).", StrategySeminaive,
			"seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: pin_box(1, box(1, _Box)) left B unbound in boxed(X, B) :- n(X), pin_box(X, B). [strategy=seminaive pred=boxed/2]"},
		{"?- boxed(X, B).", StrategyTopDown,
			"[1 box(1, _T'1)];[2 box(2, _T'2)]"},
		{"?- ident(X, B).", StrategySeminaive,
			"seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: pin_box(1, box(1, _Box)) left B unbound in ident(X, B) :- n(X), pin_box(X, B), B = box(X, X). [strategy=seminaive pred=ident/2]"},
		{"?- ident(X, B).", StrategyTopDown,
			"[1 box(1, 1)];[2 box(2, 2)]"},
		{"?- boxc([1, 2], N).", StrategyBuffered,
			"[[1, 2] 3]"},
		{"?- boxc([1, 2], N).", StrategyTopDown,
			"[[1, 2] 3]"},
		{"?- filled(X, Y).", StrategySeminaive,
			"[1 2];[2 4]"},
		{"?- filled(X, Y).", StrategyTopDown,
			"[1 2];[2 4]"},
		{"?- fillc([1, 2, 3], N).", StrategyBuffered,
			"[[1, 2, 3] 6]"},
		{"?- fillc([1, 2, 3], N).", StrategyTopDown,
			"[[1, 2, 3] 6]"},
		{"?- n(X), X < a.", StrategySeminaive,
			"partial: residual constraint 1 < a: builtin: type error: 1 < a [strategy=seminaive pred=n/1]"},
		{"?- n(X), X < a.", StrategyMagic,
			"partial: residual constraint 1 < a: builtin: type error: 1 < a [strategy=seminaive pred=n/1]"},
		{"?- n(X), X < a.", StrategyTopDown,
			"partial: residual constraint 1 < a: builtin: type error: 1 < a [strategy=seminaive pred=n/1]"},
		{"?- cnt([1, 2], N), N < a.", StrategyBuffered,
			"topdown: 3 < a: builtin: type error: 3 < a [strategy=topdown-chain-split pred=cnt/2 iteration=9]"},
		{"?- cnt([1, 2], N), N < a.", StrategyTopDown,
			"topdown: 3 < a: builtin: type error: 3 < a [strategy=topdown-chain-split pred=cnt/2 iteration=9]"},
	}
	for _, c := range cases {
		res, err := db.Query(c.query, WithStrategy(c.strat))
		got := ""
		if err != nil {
			got = err.Error()
		} else {
			var rows []string
			for _, a := range res.Tuples {
				rows = append(rows, fmt.Sprint(a))
			}
			got = strings.Join(rows, ";")
		}
		if got != c.want {
			t.Errorf("%s under %v:\n got %q\nwant %q", c.query, c.strat, got, c.want)
		}
	}
}

// TestBufferedBuiltinFailuresPinned runs the list programs of
// TestBuiltinFailuresPinned on the buffered evaluator itself: through
// the API a failed buffered evaluation reruns top-down, whose text the
// API reports.
func TestBufferedBuiltinFailuresPinned(t *testing.T) {
	res, err := lang.Parse(pinnedBuiltinSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	for _, c := range []struct {
		key, query string
		want       string // the error text, or the answers as [a b];[c d]
	}{
		{"cnt/2", "?- cnt([1, a], N).", "topdown: plus(0, a, N): builtin: type error: plus argument 2 is a"},
		{"liarc/2", "?- liarc([1, 2], N).", "topdown: pin_liar(0, N): builtin: insufficiently instantiated arguments"},
		{"keptc/2", "?- keptc([1, 2], N).", "counting: non-ground answer [[2] $1] at context bf"},
		{"boxc/2", "?- boxc([1, 2], N).", "[[1, 2] 3]"},
		{"fillc/2", "?- fillc([1, 2, 3], N).", "topdown: pin_fill(1, w(M, N)): builtin: insufficiently instantiated arguments"},
	} {
		comp, err := chain.Compile(p, program.NewDepGraph(p), c.key)
		if err != nil {
			t.Fatal(err)
		}
		q, err := lang.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := counting.New(p, relation.NewCatalog(), comp, counting.Options{}).Query(q.Goals[0])
		got := ""
		if err != nil {
			got = err.Error()
		} else {
			var rows []string
			for _, a := range ans {
				rows = append(rows, fmt.Sprint(a))
			}
			got = strings.Join(rows, ";")
		}
		if got != c.want {
			t.Errorf("%s buffered:\n got %q\nwant %q", c.query, got, c.want)
		}
	}
}

// TestSeminaiveNonGroundHeadPinned pins semi-naive's refusal of a rule
// whose head a body leaves non-ground. The planner refuses such a
// query before it runs, so the engine is called directly.
func TestSeminaiveNonGroundHeadPinned(t *testing.T) {
	res, err := lang.Parse("n(1).\nloose(X, Y) :- n(X).\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = seminaive.Eval(program.Rectify(res.Program), relation.NewCatalog(), seminaive.Options{})
	const want = "seminaive: rule is not safe for bottom-up evaluation: query is not safely evaluable: head loose(1, Y) not ground in loose(X, Y)"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
