package term

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// A ground compound's dictionary ID is its identity, so unifying,
// comparing, renaming and keying a ground list must not walk it. The
// gate compares a 16-cell list with a 65,536-cell one: a structure walk
// gives a ratio near 4,096, an ID read a ratio near 1.
func TestGroundOpsConstantTime(t *testing.T) {
	const small, large, maxRatio = 16, 1 << 16, 64
	lists := func(n int) (Term, Term) {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(i)
		}
		return IntList(vs...), IntList(vs...)
	}
	ops := []struct {
		name string
		run  func(l, l2 Term) bool
	}{
		{"Unify(Var, L)", func(l, _ Term) bool { return Unify(NewSubst(), NewVar("X"), l) }},
		{"Unify(L, L')", func(l, l2 Term) bool { return Unify(NewSubst(), l, l2) }},
		{"Equal(L, L')", func(l, l2 Term) bool { return Equal(l, l2) }},
		{"Rename(L)", func(l, _ Term) bool { return NewRenamer("_G").Rename(l).Ground() }},
		{"AppendKey(nil, L)", func(l, _ Term) bool { return len(AppendKey(nil, l)) > 0 }},
	}
	// minTime is the fastest of 20 samples of 8 back-to-back calls.
	minTime := func(f func() bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 20; i++ {
			start := time.Now()
			for j := 0; j < 8; j++ {
				if !f() {
					t.Fatal("operation failed on equal ground lists")
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return max(best, time.Nanosecond)
	}
	sl, sl2 := lists(small)
	ll, ll2 := lists(large)
	for _, op := range ops {
		ts := minTime(func() bool { return op.run(sl, sl2) })
		tl := minTime(func() bool { return op.run(ll, ll2) })
		t.Logf("%s: n=%d: %v, n=%d: %v", op.name, small, ts, large, tl)
		if ratio := float64(tl) / float64(ts); ratio > maxRatio {
			t.Errorf("%s: n=%d takes %v, n=%d takes %v: ratio %.0f > %d (a structure walk)",
				op.name, large, tl, small, ts, ratio, maxRatio)
		}
	}
}

// ---- structural references: the definitions before ID shortcuts ----

func refEqual(a, b Term) bool {
	ac, aok := a.(Comp)
	bc, bok := b.(Comp)
	if !aok || !bok {
		return a.Kind() == b.Kind() && a == b
	}
	if ac.Functor != bc.Functor || len(ac.Args) != len(bc.Args) {
		return false
	}
	for i := range ac.Args {
		if !refEqual(ac.Args[i], bc.Args[i]) {
			return false
		}
	}
	return true
}

func refOccurs(s Subst, v Var, t Term) bool {
	switch tt := s.Walk(t).(type) {
	case Var:
		return tt == v
	case Comp:
		for _, a := range tt.Args {
			if refOccurs(s, v, a) {
				return true
			}
		}
	}
	return false
}

func refUnify(s Subst, a, b Term) bool {
	a, b = s.Walk(a), s.Walk(b)
	if av, ok := a.(Var); ok {
		if bv, ok := b.(Var); ok && av == bv {
			return true
		}
		if refOccurs(s, av, b) {
			return false
		}
		s.Bind(av, b)
		return true
	}
	if bv, ok := b.(Var); ok {
		if refOccurs(s, bv, a) {
			return false
		}
		s.Bind(bv, a)
		return true
	}
	ac, aok := a.(Comp)
	bc, bok := b.(Comp)
	if !aok || !bok {
		return a.Kind() == b.Kind() && a == b
	}
	if ac.Functor != bc.Functor || len(ac.Args) != len(bc.Args) {
		return false
	}
	for i := range ac.Args {
		if !refUnify(s, ac.Args[i], bc.Args[i]) {
			return false
		}
	}
	return true
}

// refRename renames variables left to right as Renamer does, rebuilding
// every compound.
func refRename(t Term, prefix string, seen map[string]Var) Term {
	switch tt := t.(type) {
	case Var:
		if nv, ok := seen[tt.Name]; ok {
			return nv
		}
		nv := Var{Name: prefix + strconv.Itoa(len(seen)+1)}
		seen[tt.Name] = nv
		return nv
	case Comp:
		args := make([]Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = refRename(a, prefix, seen)
		}
		return NewComp(tt.Functor, args...)
	default:
		return t
	}
}

// checkIDs reports whether every compound inside t has id != 0 exactly
// when it is ground.
func checkIDs(t Term) bool {
	c, ok := t.(Comp)
	if !ok {
		return true
	}
	if (c.id != 0) != c.ground {
		return false
	}
	for _, a := range c.Args {
		if !checkIDs(a) {
			return false
		}
	}
	return true
}

// ---- generator: ground, partly ground and non-ground terms and lists ----

func randShortcutTerm(r *rand.Rand) Term {
	switch r.Intn(4) {
	case 0: // ground int list
		vs := make([]int64, r.Intn(6))
		for i := range vs {
			vs[i] = int64(r.Intn(3))
		}
		return IntList(vs...)
	case 1: // list of mixed elements, possibly with a variable tail
		elems := make([]Term, 1+r.Intn(4))
		for i := range elems {
			elems[i] = randTerm(r, 1)
		}
		var tail Term = EmptyList
		if r.Intn(3) == 0 {
			tail = NewVar(string(rune('X' + r.Intn(3))))
		}
		for i := len(elems) - 1; i >= 0; i-- {
			tail = Cons(elems[i], tail)
		}
		return tail
	case 2: // compound over lists
		return NewComp("g", randShortcutTerm(r), randTerm(r, 2))
	default:
		return randTerm(r, 3)
	}
}

// rebuild constructs an equal term from fresh cells.
func rebuild(t Term) Term {
	c, ok := t.(Comp)
	if !ok {
		return t
	}
	args := make([]Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = rebuild(a)
	}
	return NewComp(c.Functor, args...)
}

// mutate replaces one random leaf of t.
func mutate(r *rand.Rand, t Term) Term {
	c, ok := t.(Comp)
	if !ok {
		return randTerm(r, 0)
	}
	args := append([]Term(nil), c.Args...)
	i := r.Intn(len(args))
	args[i] = mutate(r, args[i])
	return NewComp(c.Functor, args...)
}

// shortcutCase is a pair of terms, equal, nearly equal or unrelated,
// plus a ground term bound to X beforehand so that Walk reaches ground
// compounds through bindings too.
type shortcutCase struct{ A, B, X Term }

func (shortcutCase) Generate(r *rand.Rand, _ int) reflect.Value {
	a := randShortcutTerm(r)
	var b Term
	switch r.Intn(3) {
	case 0:
		b = rebuild(a)
	case 1:
		b = mutate(r, a)
	default:
		b = randShortcutTerm(r)
	}
	x := randShortcutTerm(r)
	for !x.Ground() {
		x = randShortcutTerm(r)
	}
	return reflect.ValueOf(shortcutCase{A: a, B: b, X: x})
}

func (c shortcutCase) subst() Subst {
	s := NewSubst()
	s.Bind(NewVar("X"), c.X)
	return s
}

func sameBindings(s1, s2 Subst) bool {
	m1, m2 := bindings(s1), bindings(s2)
	if len(m1) != len(m2) {
		return false
	}
	for k, v := range m1 {
		if w, ok := m2[k]; !ok || !refEqual(v, w) {
			return false
		}
	}
	return true
}

func TestQuickIDShortcutsMatchStructure(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000}
	check := func(name string, f func(shortcutCase) bool) {
		t.Helper()
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("Equal", func(c shortcutCase) bool {
		return Equal(c.A, c.B) == refEqual(c.A, c.B)
	})
	check("Unify", func(c shortcutCase) bool {
		s, ref := c.subst(), c.subst()
		return Unify(s, c.A, c.B) == refUnify(ref, c.A, c.B) && sameBindings(s, ref)
	})
	check("occurs", func(c shortcutCase) bool {
		s := c.subst()
		s.Bind(NewVar("Y"), NewComp("h", NewVar("Z"), c.X))
		for _, v := range []Var{NewVar("X"), NewVar("Y"), NewVar("Z")} {
			if occurs(s, v, c.A) != refOccurs(s, v, c.A) {
				return false
			}
		}
		return true
	})
	check("Rename", func(c shortcutCase) bool {
		r := NewRenamer("_P")
		got := r.Rename(c.A)
		if !refEqual(got, refRename(c.A, "_P'", map[string]Var{})) {
			return false
		}
		if !c.A.Ground() {
			return true
		}
		id, _ := IDOf(c.A)
		rid, ok := IDOf(got)
		return ok && rid == id && len(Vars(nil, got)) == 0 && r.Fresh().Name == "_P'1"
	})
	check("Key", func(c shortcutCase) bool {
		return (key(c.A) == key(c.B)) == refEqual(c.A, c.B)
	})
	check("ground iff id", func(c shortcutCase) bool {
		s := c.subst()
		Unify(s, c.A, c.B)
		if !checkIDs(c.A) || !checkIDs(s.Resolve(c.A)) || !checkIDs(NewRenamer("_P").Rename(c.A)) {
			return false
		}
		enc, err := AppendEncode(nil, c.X)
		if err != nil {
			return false
		}
		dec, rest, err := Decode(enc)
		if err != nil || len(rest) != 0 || !checkIDs(dec) {
			return false
		}
		id, _ := IDOf(c.X)
		did, ok := IDOf(dec)
		return ok && did == id
	})
}
