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
	// Eval evaluates the builtin. args are the call arguments (not yet
	// resolved); s is the current substitution, which the caller may
	// reuse once Eval returns. Eval returns one extended substitution
	// per solution (cloning s), or
	// ErrInsufficient if the runtime binding pattern is not finitely
	// evaluable, or ErrType on ill-typed arguments.
	Eval func(s term.Subst, args []term.Term) ([]term.Subst, error)
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
// FiniteModes feed the finiteness analysis exactly like the built-in
// table (§2.2 of the paper: evaluable predicates on possibly infinite
// domains carry per-mode finiteness declarations). Core builtins
// cannot be overridden; re-registering the same user name replaces it.
func Register(b *Builtin) error {
	if b == nil || b.Name == "" || b.Arity <= 0 || b.Eval == nil {
		return errors.New("builtin: Register requires a name, positive arity and an Eval function")
	}
	for _, m := range b.FiniteModes {
		if len(m) != b.Arity {
			return fmt.Errorf("builtin: finite mode %q does not match arity %d", m, b.Arity)
		}
		for i := 0; i < len(m); i++ {
			if m[i] != 'b' && m[i] != 'f' {
				return fmt.Errorf("builtin: finite mode %q may contain only 'b' and 'f'", m)
			}
		}
	}
	k := key{b.Name, b.Arity}
	registryMu.Lock()
	defer registryMu.Unlock()
	if core[k] {
		return fmt.Errorf("builtin: cannot override core builtin %s/%d", k.name, k.arity)
	}
	registry[k] = b
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

// one wraps a single successful solution.
func one(s term.Subst) []term.Subst { return []term.Subst{s} }

// unifySolution clones s, attempts the unifications and returns the
// solution list (empty on failure).
func unifySolution(s term.Subst, pairs ...[2]term.Term) []term.Subst {
	c := s.Clone()
	for _, p := range pairs {
		if !term.Unify(c, p[0], p[1]) {
			return nil
		}
	}
	return one(c)
}

func intArg(s term.Subst, a term.Term) (int64, bool) {
	t := s.Walk(a)
	if i, ok := t.(term.Int); ok {
		return i.V, true
	}
	return 0, false
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
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			h, t, l := s.Walk(args[0]), s.Walk(args[1]), s.Walk(args[2])
			// Evaluable if the cell can be decomposed or constructed.
			_, lIsComp := l.(term.Comp)
			hOK := h.Kind() != term.KindVar || s.Resolve(h).Ground()
			tOK := t.Kind() != term.KindVar || s.Resolve(t).Ground()
			constructible := hOK && tOK
			// Resolve non-var head/tail: they may be partially bound
			// compounds; construction just needs them present.
			if !lIsComp && l.Kind() != term.KindVar {
				// e.g. cons(H,T,[]) — fails immediately, finite.
				return nil, nil
			}
			if !lIsComp && !constructible {
				return nil, ErrInsufficient
			}
			cell := term.Cons(args[0], args[1])
			return unifySolution(s, [2]term.Term{cell, args[2]}), nil
		},
	})

	register(&Builtin{
		Name:        "=",
		Arity:       2,
		FiniteModes: []string{"bf", "fb"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, b := s.Walk(args[0]), s.Walk(args[1])
			if a.Kind() == term.KindVar && b.Kind() == term.KindVar && !term.Equal(a, b) {
				// X = Y with both free: aliasing is sound and finite.
				return unifySolution(s, [2]term.Term{a, b}), nil
			}
			return unifySolution(s, [2]term.Term{args[0], args[1]}), nil
		},
	})

	register(&Builtin{
		Name:        "\\=",
		Arity:       2,
		FiniteModes: []string{"bb"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, b := s.Resolve(args[0]), s.Resolve(args[1])
			if !a.Ground() || !b.Ground() {
				return nil, ErrInsufficient
			}
			if term.Equal(a, b) {
				return nil, nil
			}
			return one(s.Clone()), nil
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
		cmp := cmp
		register(&Builtin{
			Name:        cmp.name,
			Arity:       2,
			FiniteModes: []string{"bb"},
			Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
				a, aok := intArg(s, args[0])
				b, bok := intArg(s, args[1])
				if !aok || !bok {
					ra, rb := s.Resolve(args[0]), s.Resolve(args[1])
					if !ra.Ground() || !rb.Ground() {
						return nil, ErrInsufficient
					}
					return nil, fmt.Errorf("%w: %s %s %s", ErrType, ra, cmp.name, rb)
				}
				if cmp.ok(a, b) {
					return one(s.Clone()), nil
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
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, aok := intArg(s, args[0])
			b, bok := intArg(s, args[1])
			c, cok := intArg(s, args[2])
			n := 0
			for _, ok := range []bool{aok, bok, cok} {
				if ok {
					n++
				}
			}
			if n < 2 {
				// Distinguish "unbound" from "bound to a non-int".
				for i, ok := range []bool{aok, bok, cok} {
					w := s.Walk(args[i])
					if !ok && w.Kind() != term.KindVar {
						return nil, fmt.Errorf("%w: plus argument %d is %s", ErrType, i+1, w)
					}
				}
				return nil, ErrInsufficient
			}
			switch {
			case aok && bok:
				return unifySolution(s, [2]term.Term{args[2], term.NewInt(a + b)}), nil
			case aok && cok:
				return unifySolution(s, [2]term.Term{args[1], term.NewInt(c - a)}), nil
			default:
				return unifySolution(s, [2]term.Term{args[0], term.NewInt(c - b)}), nil
			}
		},
	})

	// minus(A, B, C) holds when A-B = C; finitely evaluable when any
	// two arguments are bound.
	register(&Builtin{
		Name:        "minus",
		Arity:       3,
		FiniteModes: []string{"bbf", "bfb", "fbb"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, aok := intArg(s, args[0])
			b, bok := intArg(s, args[1])
			c, cok := intArg(s, args[2])
			switch {
			case aok && bok:
				return unifySolution(s, [2]term.Term{args[2], term.NewInt(a - b)}), nil
			case aok && cok:
				return unifySolution(s, [2]term.Term{args[1], term.NewInt(a - c)}), nil
			case bok && cok:
				return unifySolution(s, [2]term.Term{args[0], term.NewInt(b + c)}), nil
			default:
				return nil, ErrInsufficient
			}
		},
	})

	// mod(A, B, C) holds when A mod B = C (B ≠ 0); inputs must be
	// bound.
	register(&Builtin{
		Name:        "mod",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, aok := intArg(s, args[0])
			b, bok := intArg(s, args[1])
			if !aok || !bok {
				return nil, ErrInsufficient
			}
			if b == 0 {
				return nil, fmt.Errorf("%w: mod by zero", ErrType)
			}
			m := a % b
			if m < 0 {
				m += b
			}
			return unifySolution(s, [2]term.Term{args[2], term.NewInt(m)}), nil
		},
	})

	// abs(A, B) holds when |A| = B; A must be bound.
	register(&Builtin{
		Name:        "abs",
		Arity:       2,
		FiniteModes: []string{"bf"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, aok := intArg(s, args[0])
			if !aok {
				return nil, ErrInsufficient
			}
			if a < 0 {
				a = -a
			}
			return unifySolution(s, [2]term.Term{args[1], term.NewInt(a)}), nil
		},
	})

	// between(Lo, Hi, X) enumerates Lo ≤ X ≤ Hi — a bounded generator
	// (finite with Lo and Hi bound even when X is free), used for
	// range-style workloads such as n-queens boards.
	register(&Builtin{
		Name:        "between",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			lo, look := intArg(s, args[0])
			hi, hook := intArg(s, args[1])
			if !look || !hook {
				return nil, ErrInsufficient
			}
			if x, xok := intArg(s, args[2]); xok {
				if x >= lo && x <= hi {
					return one(s.Clone()), nil
				}
				return nil, nil
			}
			var out []term.Subst
			for x := lo; x <= hi; x++ {
				out = append(out, unifySolution(s, [2]term.Term{args[2], term.NewInt(x)})...)
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
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			l := s.Resolve(args[0])
			if !l.Ground() {
				return nil, ErrInsufficient
			}
			n := term.ListLen(l)
			if n < 0 {
				return nil, fmt.Errorf("%w: length of non-list %s", ErrType, l)
			}
			return unifySolution(s, [2]term.Term{args[1], term.NewInt(int64(n))}), nil
		},
	})

	// times(A, B, C) holds when A*B = C; only the all-inputs-bound mode
	// is declared finite (b=0, c=0 makes the inverse modes infinite).
	register(&Builtin{
		Name:        "times",
		Arity:       3,
		FiniteModes: []string{"bbf"},
		Eval: func(s term.Subst, args []term.Term) ([]term.Subst, error) {
			a, aok := intArg(s, args[0])
			b, bok := intArg(s, args[1])
			if aok && bok {
				return unifySolution(s, [2]term.Term{args[2], term.NewInt(a * b)}), nil
			}
			c, cok := intArg(s, args[2])
			if aok && cok && a != 0 && c%a == 0 {
				return unifySolution(s, [2]term.Term{args[1], term.NewInt(c / a)}), nil
			}
			if bok && cok && b != 0 && c%b == 0 {
				return unifySolution(s, [2]term.Term{args[0], term.NewInt(c / b)}), nil
			}
			return nil, ErrInsufficient
		},
	})
}
