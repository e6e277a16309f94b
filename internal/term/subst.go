package term

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Subst is a substitution: a finite mapping from variable names to
// terms. Bindings may be chained (a variable bound to another variable
// that is itself bound); Walk and Resolve follow chains.
//
// A Subst is not a map. It points to a small mutable head over an
// immutable chain of binding cells, newest first: Bind prepends one
// cell, Walk scans the chain, and Clone copies only the head, so it
// costs O(1) and the copy shares every binding made so far while
// later bindings on either side stay private to that side. Copies of a
// Subst value share one head, so Unify extending one extends all;
// Clone before branching. The chains stay short because a user
// builtin starts from a fresh substitution at every call.
type Subst struct{ h *substHead }

type substHead struct{ top *binding }

// binding is one cell of a substitution's chain. Cells are never
// modified once linked, which is what lets clones share them.
type binding struct {
	name string
	val  Term
	next *binding
}

// NewSubst returns an empty substitution.
func NewSubst() Subst { return Subst{new(substHead)} }

// Clone returns a substitution holding the same bindings as s that
// can be extended independently of it. It copies no binding.
func (s Subst) Clone() Subst { return Subst{&substHead{top: s.h.top}} }

// lookup returns the term the variable named name is bound to.
func (s Subst) lookup(name string) (Term, bool) {
	for c := s.h.top; c != nil; c = c.next {
		if c.name == name {
			return c.val, true
		}
	}
	return nil, false
}

// Bind adds the binding v := t. Binding v again to an equal term is a
// no-op; it panics if v is already bound to a different term, so
// callers are expected to Walk first.
func (s Subst) Bind(v Var, t Term) {
	if old, ok := s.lookup(v.Name); ok {
		if !Equal(old, t) {
			panic(fmt.Sprintf("term: rebinding %s from %s to %s", v.Name, old, t))
		}
		return
	}
	s.h.top = &binding{name: v.Name, val: t, next: s.h.top}
}

// Walk follows variable bindings starting at t until it reaches a
// non-variable term or an unbound variable. It does not descend into
// compound terms.
func (s Subst) Walk(t Term) Term {
	for {
		v, ok := t.(Var)
		if !ok {
			return t
		}
		bound, ok := s.lookup(v.Name)
		if !ok {
			return t
		}
		t = bound
	}
}

// Resolve applies s to t fully, substituting bound variables at any
// depth. Unbound variables remain.
func (s Subst) Resolve(t Term) Term {
	t = s.Walk(t)
	c, ok := t.(Comp)
	if !ok || c.Ground() {
		return t
	}
	args := make([]Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = s.Resolve(a)
	}
	return NewComp(c.Functor, args...)
}

// ResolveAll applies Resolve to each term.
func (s Subst) ResolveAll(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = s.Resolve(t)
	}
	return out
}

// String renders the substitution deterministically, e.g. {X=1, Y=a}.
// Bind never shadows a binding, so each variable appears once.
func (s Subst) String() string {
	var cells []*binding
	for c := s.h.top; c != nil; c = c.next {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].name < cells[j].name })
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range cells {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", c.name, c.val)
	}
	b.WriteByte('}')
	return b.String()
}

// Unify attempts to unify a and b under s, extending s in place. It
// reports whether unification succeeded; on failure s may contain
// partial bindings, so callers should Clone before calling if they need
// to backtrack. The occurs check is performed, so unification is sound
// (X never unifies with f(X)); this matters because the rectifier turns
// list constructors into cons literals whose evaluation must terminate.
// The check skips ground compounds (they contain no variable), and two
// ground compounds unify iff their dictionary IDs are equal, so binding
// or matching a ground list costs O(1) in its length.
func Unify(s Subst, a, b Term) bool {
	a, b = s.Walk(a), s.Walk(b)
	if av, ok := a.(Var); ok {
		if bv, ok := b.(Var); ok && av == bv {
			return true
		}
		if occurs(s, av, b) {
			return false
		}
		s.Bind(av, b)
		return true
	}
	if bv, ok := b.(Var); ok {
		if occurs(s, bv, a) {
			return false
		}
		s.Bind(bv, a)
		return true
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch at := a.(type) {
	case Sym:
		return at == b.(Sym)
	case Int:
		return at == b.(Int)
	case Str:
		return at == b.(Str)
	case Comp:
		bt := b.(Comp)
		if at.id != 0 && bt.id != 0 {
			return at.id == bt.id
		}
		if at.Functor != bt.Functor || len(at.Args) != len(bt.Args) {
			return false
		}
		for i := range at.Args {
			if !Unify(s, at.Args[i], bt.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Unifier returns the instance that unifying a and b makes of both, or
// false when they do not unify.
func Unifier(a, b Term) (Term, bool) {
	s := NewSubst()
	if !Unify(s, a, b) {
		return nil, false
	}
	return s.Resolve(a), true
}

func occurs(s Subst, v Var, t Term) bool {
	t = s.Walk(t)
	switch tt := t.(type) {
	case Var:
		return tt == v
	case Comp:
		if tt.ground {
			return false
		}
		for _, a := range tt.Args {
			if occurs(s, v, a) {
				return true
			}
		}
	}
	return false
}

// Renamer generates fresh variable names and consistently renames the
// variables of terms apart from all previously issued names.
type Renamer struct {
	prefix string
	n      int
	seen   map[string]Var
}

// NewRenamer returns a Renamer issuing the names prefix'1, prefix'2, …
// (e.g. _T'3 for the prefix _T). No source identifier contains a
// quote, so an issued name never equals a variable a program or query
// names, nor an anonymous one (those start _#).
func NewRenamer(prefix string) *Renamer {
	return &Renamer{prefix: prefix + "'", seen: make(map[string]Var)}
}

// Fresh returns a brand-new variable.
func (r *Renamer) Fresh() Var {
	r.n++
	return Var{Name: r.prefix + strconv.Itoa(r.n)}
}

// Reset forgets the per-term renaming table (but not the counter), so
// the next Rename call renames apart from everything issued so far.
func (r *Renamer) Reset() { r.seen = make(map[string]Var) }

// Rename returns t with every variable consistently replaced by a fresh
// one. Consecutive calls share the renaming table until Reset, so the
// head and body of one rule stay consistent. Ground terms, compounds
// included, come back unchanged.
func (r *Renamer) Rename(t Term) Term {
	switch tt := t.(type) {
	case Var:
		if nv, ok := r.seen[tt.Name]; ok {
			return nv
		}
		nv := r.Fresh()
		r.seen[tt.Name] = nv
		return nv
	case Comp:
		if tt.ground {
			return t
		}
		args := make([]Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = r.Rename(a)
		}
		return NewComp(tt.Functor, args...)
	default:
		return t
	}
}
