// Package builtin implements the evaluable (functional) predicates of
// the language: list construction (cons/3), equality, arithmetic and
// comparisons. These are the predicates the paper calls "functional
// predicates defined on infinite domains" (§2.2): each supports only
// some binding patterns finitely, and the finiteness table published
// here is what the adornment analysis uses to decide where a chain
// generating path *must* be split.
//
// For example cons(X1, W1, W) is finitely evaluable when W is bound
// (decomposition) or when X1 and W1 are bound (construction), but with
// only X1 bound it has infinitely many solutions — precisely the
// situation that forces chain-split evaluation of append, isort and
// travel in the paper.
package builtin

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"chainsplit/internal/everr"
	"chainsplit/internal/term"
)

// ErrInsufficient is returned when a builtin is invoked with a binding
// pattern it cannot evaluate finitely. It wraps everr.ErrUnsafe.
var ErrInsufficient = everr.Tag("builtin: insufficiently instantiated arguments", everr.ErrUnsafe)

// ErrType is returned when a builtin receives arguments of the wrong
// type (e.g. comparing a symbol with <).
var ErrType = errors.New("builtin: type error")

// A Builtin describes one evaluable predicate.
type Builtin struct {
	// Name is the predicate name as written in programs ("cons", "=",
	// "<", "plus", ...).
	Name string
	// Arity is the number of arguments.
	Arity int
	// FiniteModes lists the adornment strings (over 'b'/'f') under
	// which the builtin has finitely many solutions. A pattern matches
	// a call adornment if every 'b' position of the pattern is bound in
	// the call (extra bound positions are always fine).
	FiniteModes []string
	// Solve evaluates the builtin on args, the literal's arguments
	// resolved by the caller: a bound argument is its value, and a free
	// one holds the caller's variables. It returns one argument vector
	// per solution, which the caller unifies with args (a vector may be
	// args itself), or ErrInsufficient if the runtime binding pattern is
	// not finitely evaluable, or ErrType on ill-typed arguments.
	Solve func(args []term.Term) ([][]term.Term, error)
}

// registry holds all builtins keyed by name/arity. Core builtins are
// installed by init; user builtins are added through Register.
var (
	registryMu sync.RWMutex
	registry   = map[key]*Builtin{}
	core       = map[key]bool{}
)

// key identifies a builtin by name and arity without building a string.
type key struct {
	name  string
	arity int
}

func register(b *Builtin) {
	k := key{b.Name, b.Arity}
	registry[k] = b
	core[k] = true
}

// Register installs a user-defined evaluable predicate. The declared
// finiteModes feed the finiteness analysis exactly like the built-in
// table (§2.2 of the paper: evaluable predicates on possibly infinite
// domains carry per-mode finiteness declarations). eval runs on an
// empty substitution and the literal's resolved arguments, a free one
// as a variable of the engine's; each substitution it returns is a
// solution, the arguments resolved under it. Core builtins cannot be
// overridden; re-registering the same user name replaces it.
func Register(name string, arity int, finiteModes []string, eval func(term.Subst, []term.Term) ([]term.Subst, error)) error {
	if name == "" || arity <= 0 || eval == nil {
		return errors.New("builtin: Register requires a name, positive arity and an Eval function")
	}
	for _, m := range finiteModes {
		if len(m) != arity {
			return fmt.Errorf("builtin: finite mode %q does not match arity %d", m, arity)
		}
		for i := 0; i < len(m); i++ {
			if m[i] != 'b' && m[i] != 'f' {
				return fmt.Errorf("builtin: finite mode %q may contain only 'b' and 'f'", m)
			}
		}
	}
	k := key{name, arity}
	registryMu.Lock()
	defer registryMu.Unlock()
	if core[k] {
		return fmt.Errorf("builtin: cannot override core builtin %s/%d", k.name, k.arity)
	}
	registry[k] = &Builtin{Name: name, Arity: arity, FiniteModes: finiteModes, Solve: func(args []term.Term) ([][]term.Term, error) {
		sols, err := eval(term.NewSubst(), args)
		out := make([][]term.Term, len(sols))
		for i, s := range sols {
			out[i] = s.ResolveAll(args)
		}
		return out, err
	}}
	return nil
}

// Lookup returns the builtin with the given name and arity, or nil.
func Lookup(name string, arity int) *Builtin {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[key{name, arity}]
}

// IsBuiltin reports whether name/arity names a builtin predicate.
func IsBuiltin(name string, arity int) bool { return Lookup(name, arity) != nil }

// FiniteUnder reports whether the builtin is finitely evaluable when
// exactly the argument positions with adornment[i] == 'b' are bound.
// adornment must have length Arity.
func (b *Builtin) FiniteUnder(adornment string) bool {
	if len(adornment) != b.Arity {
		return false
	}
	for _, m := range b.FiniteModes {
		ok := true
		for i := 0; i < b.Arity; i++ {
			if m[i] == 'b' && adornment[i] != 'b' {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// one returns the single solution args.
func one(args []term.Term) [][]term.Term { return [][]term.Term{args} }

// with returns the single solution that is args with position i set to
// t, the value the builtin computes.
func with(args []term.Term, i int, t term.Term) [][]term.Term {
	sol := slices.Clone(args)
	sol[i] = t
	return one(sol)
}

// ints returns the integer values of args, and which of them are ints.
func ints(args []term.Term) (v [3]int64, ok [3]bool) {
	for i, a := range args {
		if n, isInt := a.(term.Int); isInt {
			v[i], ok[i] = n.V, true
		}
	}
	return v, ok
}

func init() {
	register(&Builtin{
		Name:  "cons",
		Arity: 3,
		// [X|Xs] = XXs: finitely evaluable when the whole list is bound
		// (decomposition) or when head and tail are bound
		// (construction). With only the head bound — the paper's
		// cons(X1, W1, W) case — the solution set is infinite.
		FiniteModes: []string{"bbf", "ffb"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			switch l := args[2].(type) {
			case term.Comp:
				if l.Functor != term.ConsFunctor || len(l.Args) != 2 {
					return nil, nil
				}
				return one([]term.Term{l.Args[0], l.Args[1], l}), nil
			case term.Var:
				// A head or tail that is a partly bound compound may be
				// built into the cell; a free one may not.
				if args[0].Kind() == term.KindVar || args[1].Kind() == term.KindVar {
					return nil, ErrInsufficient
				}
				return with(args, 2, term.Cons(args[0], args[1])), nil
			}
			// e.g. cons(H, T, []): fails, finitely.
			return nil, nil
		},
	})

	register(&Builtin{
		Name:        "=",
		Arity:       2,
		FiniteModes: []string{"bf", "fb"},
		// The one solution holds the arguments' common instance in both
		// positions: a ground side as it is, a ground pair compared.
		Solve: func(args []term.Term) ([][]term.Term, error) {
			a, b := args[0], args[1]
			switch ga, gb := a.Ground(), b.Ground(); {
			case ga && gb:
				if term.Equal(a, b) {
					return one(args), nil
				}
				return nil, nil
			case ga:
				b = a
			case gb:
				a = b
			default:
				u, ok := term.Unifier(a, b)
				if !ok {
					return nil, nil
				}
				a, b = u, u
			}
			return one([]term.Term{a, b}), nil
		},
	})

	register(&Builtin{
		Name:        "\\=",
		Arity:       2,
		FiniteModes: []string{"bb"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			if !args[0].Ground() || !args[1].Ground() {
				return nil, ErrInsufficient
			}
			if term.Equal(args[0], args[1]) {
				return nil, nil
			}
			return one(args), nil
		},
	})

	for _, cmp := range []struct {
		name string
		ok   func(a, b int64) bool
	}{
		{"<", func(a, b int64) bool { return a < b }},
		{">", func(a, b int64) bool { return a > b }},
		{"=<", func(a, b int64) bool { return a <= b }},
		{">=", func(a, b int64) bool { return a >= b }},
	} {
		register(&Builtin{
			Name:        cmp.name,
			Arity:       2,
			FiniteModes: []string{"bb"},
			Solve: func(args []term.Term) ([][]term.Term, error) {
				v, ok := ints(args)
				if !ok[0] || !ok[1] {
					if !args[0].Ground() || !args[1].Ground() {
						return nil, ErrInsufficient
					}
					return nil, fmt.Errorf("%w: %s %s %s", ErrType, args[0], cmp.name, args[1])
				}
				if cmp.ok(v[0], v[1]) {
					return one(args), nil
				}
				return nil, nil
			},
		})
	}

	// plus(A, B, C) holds when A+B = C. The paper's travel example uses
	// it (as "sum") to accumulate fares; it is finitely evaluable when
	// any two arguments are bound.
	register(&Builtin{
		Name:        "plus",
		Arity:       3,
		FiniteModes: []string{"bbf", "bfb", "fbb"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			switch {
			case ok[0] && ok[1]:
				return with(args, 2, term.NewInt(v[0]+v[1])), nil
			case ok[0] && ok[2]:
				return with(args, 1, term.NewInt(v[2]-v[0])), nil
			case ok[1] && ok[2]:
				return with(args, 0, term.NewInt(v[2]-v[1])), nil
			}
			// Distinguish "unbound" from "bound to a non-int".
			for i, a := range args {
				if !ok[i] && a.Kind() != term.KindVar {
					return nil, fmt.Errorf("%w: plus argument %d is %s", ErrType, i+1, a)
				}
			}
			return nil, ErrInsufficient
		},
	})

	// minus(A, B, C) holds when A-B = C; finitely evaluable when any
	// two arguments are bound.
	register(&Builtin{
		Name:        "minus",
		Arity:       3,
		FiniteModes: []string{"bbf", "bfb", "fbb"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			switch {
			case ok[0] && ok[1]:
				return with(args, 2, term.NewInt(v[0]-v[1])), nil
			case ok[0] && ok[2]:
				return with(args, 1, term.NewInt(v[0]-v[2])), nil
			case ok[1] && ok[2]:
				return with(args, 0, term.NewInt(v[1]+v[2])), nil
			}
			return nil, ErrInsufficient
		},
	})

	// mod(A, B, C) holds when A mod B = C (B ≠ 0); inputs must be
	// bound.
	register(&Builtin{
		Name:        "mod",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			if !ok[0] || !ok[1] {
				return nil, ErrInsufficient
			}
			if v[1] == 0 {
				return nil, fmt.Errorf("%w: mod by zero", ErrType)
			}
			m := v[0] % v[1]
			if m < 0 {
				m += v[1]
			}
			return with(args, 2, term.NewInt(m)), nil
		},
	})

	// abs(A, B) holds when |A| = B; A must be bound.
	register(&Builtin{
		Name:        "abs",
		Arity:       2,
		FiniteModes: []string{"bf"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			if !ok[0] {
				return nil, ErrInsufficient
			}
			return with(args, 1, term.NewInt(max(v[0], -v[0]))), nil
		},
	})

	// between(Lo, Hi, X) enumerates Lo ≤ X ≤ Hi — a bounded generator
	// (finite with Lo and Hi bound even when X is free), used for
	// range-style workloads such as n-queens boards.
	register(&Builtin{
		Name:        "between",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			if !ok[0] || !ok[1] {
				return nil, ErrInsufficient
			}
			if ok[2] {
				if v[2] >= v[0] && v[2] <= v[1] {
					return one(args), nil
				}
				return nil, nil
			}
			var out [][]term.Term
			for x := v[0]; x <= v[1]; x++ {
				out = append(out, with(args, 2, term.NewInt(x))...)
			}
			return out, nil
		},
	})

	// length(L, N) holds when L is a list of length N; finitely
	// evaluable only when L is bound (a free L with bound N denotes
	// infinitely many ground lists).
	register(&Builtin{
		Name:        "length",
		Arity:       2,
		FiniteModes: []string{"bf"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			if !args[0].Ground() {
				return nil, ErrInsufficient
			}
			n := term.ListLen(args[0])
			if n < 0 {
				return nil, fmt.Errorf("%w: length of non-list %s", ErrType, args[0])
			}
			return with(args, 1, term.NewInt(int64(n))), nil
		},
	})

	// times(A, B, C) holds when A*B = C; only the all-inputs-bound mode
	// is declared finite (b=0, c=0 makes the inverse modes infinite).
	register(&Builtin{
		Name:        "times",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Solve: func(args []term.Term) ([][]term.Term, error) {
			v, ok := ints(args)
			switch {
			case ok[0] && ok[1]:
				return with(args, 2, term.NewInt(v[0]*v[1])), nil
			case ok[0] && ok[2] && v[0] != 0 && v[2]%v[0] == 0:
				return with(args, 1, term.NewInt(v[2]/v[0])), nil
			case ok[1] && ok[2] && v[1] != 0 && v[2]%v[1] == 0:
				return with(args, 0, term.NewInt(v[2]/v[1])), nil
			}
			return nil, ErrInsufficient
		},
	})
}
