package term

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindOrdering(t *testing.T) {
	kinds := []Term{NewVar("X"), NewInt(3), NewSym("a"), NewStr("s"), NewComp("f", NewInt(1))}
	for i := 0; i < len(kinds); i++ {
		for j := 0; j < len(kinds); j++ {
			got := Compare(kinds[i], kinds[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", kinds[i], kinds[j], got, want)
			}
		}
	}
}

func TestListConstruction(t *testing.T) {
	l := IntList(5, 7, 1)
	if got := l.String(); got != "[5, 7, 1]" {
		t.Errorf("IntList(5,7,1).String() = %q, want %q", got, "[5, 7, 1]")
	}
	elems, ok := ListSlice(l)
	if !ok || len(elems) != 3 {
		t.Fatalf("ListSlice failed: ok=%v elems=%v", ok, elems)
	}
	if ListLen(l) != 3 {
		t.Errorf("ListLen = %d, want 3", ListLen(l))
	}
	if ListLen(EmptyList) != 0 {
		t.Errorf("ListLen([]) = %d, want 0", ListLen(EmptyList))
	}
}

func TestImproperList(t *testing.T) {
	l := Cons(NewInt(1), NewVar("T"))
	if _, ok := ListSlice(l); ok {
		t.Error("ListSlice accepted improper list")
	}
	if ListLen(l) != -1 {
		t.Errorf("ListLen(improper) = %d, want -1", ListLen(l))
	}
	if got := l.String(); got != "[1|T]" {
		t.Errorf("improper list String() = %q, want [1|T]", got)
	}
}

func TestCompString(t *testing.T) {
	c := NewComp("flight", NewSym("yvr"), NewInt(930), NewVar("A"))
	if got := c.String(); got != "flight(yvr, 930, A)" {
		t.Errorf("String() = %q", got)
	}
}

func TestGround(t *testing.T) {
	if !IntList(1, 2).Ground() {
		t.Error("ground list reported non-ground")
	}
	if List(NewVar("X")).Ground() {
		t.Error("list with var reported ground")
	}
	if NewComp("f", NewSym("a"), NewComp("g", NewVar("Y"))).Ground() {
		t.Error("nested var reported ground")
	}
}

func TestKeyDistinct(t *testing.T) {
	terms := []Term{
		NewSym("a"), NewSym("ab"), NewStr("a"), NewVar("a"), NewInt(1),
		NewInt(-1), NewComp("f", NewSym("a")), NewComp("f", NewSym("a"), NewSym("b")),
		NewComp("g", NewSym("a")), List(NewSym("a")), EmptyList,
		// adversarial: encodings must not collide across boundaries
		NewComp("f", NewSym("ab"), NewSym("c")), NewComp("f", NewSym("a"), NewSym("bc")),
	}
	seen := make(map[string]Term)
	for _, a := range terms {
		k := key(a)
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision between %v and %v", prev, a)
		}
		seen[k] = a
	}
}

func TestUnifyBasics(t *testing.T) {
	s := NewSubst()
	if !Unify(s, NewVar("X"), NewInt(3)) {
		t.Fatal("var/int unify failed")
	}
	if got := s.Resolve(NewVar("X")); !Equal(got, NewInt(3)) {
		t.Errorf("X resolved to %v", got)
	}
	if Unify(s, NewVar("X"), NewInt(4)) {
		t.Error("X unified with both 3 and 4")
	}
}

func TestUnifyCompound(t *testing.T) {
	s := NewSubst()
	a := NewComp("f", NewVar("X"), NewComp("g", NewVar("X")))
	b := NewComp("f", NewSym("a"), NewComp("g", NewVar("Y")))
	if !Unify(s, a, b) {
		t.Fatal("compound unify failed")
	}
	if got := s.Resolve(NewVar("Y")); !Equal(got, NewSym("a")) {
		t.Errorf("Y = %v, want a", got)
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	s := NewSubst()
	if Unify(s, NewVar("X"), NewComp("f", NewVar("X"))) {
		t.Error("occurs check failed: X unified with f(X)")
	}
	// Chained occurrence: X=Y then Y with f(X).
	s = NewSubst()
	if !Unify(s, NewVar("X"), NewVar("Y")) {
		t.Fatal("var/var unify failed")
	}
	if Unify(s, NewVar("Y"), NewComp("f", NewVar("X"))) {
		t.Error("occurs check failed through chain")
	}
}

func TestUnifyLists(t *testing.T) {
	s := NewSubst()
	pat := Cons(NewVar("H"), NewVar("T"))
	if !Unify(s, pat, IntList(5, 7, 1)) {
		t.Fatal("list pattern unify failed")
	}
	if got := s.Resolve(NewVar("H")); !Equal(got, NewInt(5)) {
		t.Errorf("H = %v", got)
	}
	if got := s.Resolve(NewVar("T")); !Equal(got, IntList(7, 1)) {
		t.Errorf("T = %v", got)
	}
}

func TestSubstResolveDeep(t *testing.T) {
	s := NewSubst()
	s.Bind(NewVar("X"), NewVar("Y"))
	s.Bind(NewVar("Y"), NewComp("f", NewVar("Z")))
	s.Bind(NewVar("Z"), NewInt(9))
	got := s.Resolve(NewComp("g", NewVar("X")))
	want := NewComp("g", NewComp("f", NewInt(9)))
	if !Equal(got, want) {
		t.Errorf("Resolve = %v, want %v", got, want)
	}
}

func TestRenamer(t *testing.T) {
	r := NewRenamer("_R")
	a := NewComp("f", NewVar("X"), NewVar("Y"), NewVar("X"))
	ra := r.Rename(a).(Comp)
	if !Equal(ra.Args[0], ra.Args[2]) {
		t.Error("same source var renamed inconsistently")
	}
	if Equal(ra.Args[0], ra.Args[1]) {
		t.Error("distinct source vars renamed to same var")
	}
	r.Reset()
	rb := r.Rename(NewVar("X"))
	if Equal(ra.Args[0], rb) {
		t.Error("Reset did not produce fresh names")
	}
	// An issued name is no source identifier, so it cannot collide with
	// a variable a query names (such as _R1), and it is not anonymous.
	for _, v := range []Var{ra.Args[0].(Var), ra.Args[1].(Var), rb.(Var), r.Fresh()} {
		if !strings.ContainsRune(v.Name, '\'') || v.Anonymous() {
			t.Errorf("issued name %q could be a source variable or reads as anonymous", v.Name)
		}
	}
}

func TestSubstString(t *testing.T) {
	s := NewSubst()
	s.Bind(NewVar("B"), NewInt(2))
	s.Bind(NewVar("A"), NewInt(1))
	if got := s.String(); got != "{A=1, B=2}" {
		t.Errorf("String() = %q", got)
	}
}

// randTerm generates a random ground-or-not term for property testing.
func randTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return NewInt(int64(r.Intn(20) - 10))
		case 1:
			return NewSym(string(rune('a' + r.Intn(5))))
		case 2:
			return NewVar(string(rune('X' + r.Intn(3))))
		default:
			return NewStr(string(rune('p' + r.Intn(3))))
		}
	}
	switch r.Intn(6) {
	case 0:
		return NewInt(int64(r.Intn(20) - 10))
	case 1:
		return NewSym(string(rune('a' + r.Intn(5))))
	case 2:
		return NewVar(string(rune('X' + r.Intn(3))))
	case 3:
		n := 1 + r.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = randTerm(r, depth-1)
		}
		return NewComp(string(rune('f'+r.Intn(3))), args...)
	case 4:
		return Cons(randTerm(r, depth-1), randTerm(r, depth-1))
	default:
		return EmptyList
	}
}

type termValue struct{ T Term }

func (termValue) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(termValue{T: randTerm(r, 3)})
}

func TestQuickEqualConsistentWithKey(t *testing.T) {
	f := func(a, b termValue) bool {
		return Equal(a.T, b.T) == (key(a.T) == key(b.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b termValue) bool {
		return Compare(a.T, b.T) == -Compare(b.T, a.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareZeroIffEqual(t *testing.T) {
	f := func(a, b termValue) bool {
		return (Compare(a.T, b.T) == 0) == Equal(a.T, b.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifyReflexive(t *testing.T) {
	f := func(a termValue) bool {
		s := NewSubst()
		return Unify(s, a.T, a.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifyProducesCommonInstance(t *testing.T) {
	f := func(a, b termValue) bool {
		s := NewSubst()
		if !Unify(s, a.T, b.T) {
			return true // nothing to check
		}
		return Equal(s.Resolve(a.T), s.Resolve(b.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRenamePreservesStructure(t *testing.T) {
	f := func(a termValue) bool {
		r := NewRenamer("_Q")
		renamed := r.Rename(a.T)
		// Renaming must preserve kind and, for compounds, functor/arity.
		if renamed.Kind() != a.T.Kind() {
			return false
		}
		if c, ok := a.T.(Comp); ok {
			rc := renamed.(Comp)
			return c.Functor == rc.Functor && len(c.Args) == len(rc.Args)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestVarSet(t *testing.T) {
	set := VarSet(NewComp("f", NewVar("X"), List(NewVar("Y"), NewVar("X"))))
	if len(set) != 2 || !set["X"] || !set["Y"] {
		t.Errorf("VarSet = %v", set)
	}
	names := SortedVarNames(set)
	if len(names) != 2 || names[0] != "X" || names[1] != "Y" {
		t.Errorf("SortedVarNames = %v", names)
	}
}

// key is the map key AppendKey encodes for t.
func key(t Term) string { return string(AppendKey(nil, t)) }
