package program

import (
	"testing"

	"chainsplit/internal/term"
)

func v(n string) term.Term   { return term.NewVar(n) }
func sym(n string) term.Term { return term.NewSym(n) }

func TestAtomBasics(t *testing.T) {
	a := NewAtom("parent", v("X"), sym("ann"))
	if a.Key() != "parent/2" {
		t.Errorf("Key = %q", a.Key())
	}
	if a.Ground() {
		t.Error("atom with var reported ground")
	}
	if a.String() != "parent(X, ann)" {
		t.Errorf("String = %q", a.String())
	}
	b := NewAtom("=", v("X"), term.EmptyList)
	if b.String() != "X = []" {
		t.Errorf("infix String = %q", b.String())
	}
	if !b.IsBuiltin() {
		t.Error("= not recognized as builtin")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Head: NewAtom("sg", v("X"), v("Y")),
		Body: []Atom{NewAtom("sibling", v("X"), v("Y"))},
	}
	if got := r.String(); got != "sg(X, Y) :- sibling(X, Y)." {
		t.Errorf("String = %q", got)
	}
	f := Rule{Head: NewAtom("parent", sym("a"), sym("b"))}
	if !f.IsFact() {
		t.Error("ground bodyless rule not a fact")
	}
	if got := f.String(); got != "parent(a, b)." {
		t.Errorf("fact String = %q", got)
	}
}

func TestProgramEDBIDB(t *testing.T) {
	p := &Program{}
	p.AddRule(Rule{
		Head: NewAtom("sg", v("X"), v("Y")),
		Body: []Atom{
			NewAtom("parent", v("X"), v("X1")),
			NewAtom("sg", v("X1"), v("Y1")),
			NewAtom("parent", v("Y"), v("Y1")),
		},
	})
	p.AddRule(Rule{
		Head: NewAtom("sg", v("X"), v("Y")),
		Body: []Atom{NewAtom("sibling", v("X"), v("Y"))},
	})
	p.AddRule(Rule{Head: NewAtom("parent", sym("ann"), sym("bob"))})

	idb := p.IDB()
	if !idb["sg/2"] || len(idb) != 1 {
		t.Errorf("IDB = %v", idb)
	}
	if len(p.Facts) != 1 {
		t.Errorf("Facts = %v", p.Facts)
	}
	if got := len(p.RulesFor("sg/2")); got != 2 {
		t.Errorf("RulesFor(sg/2) = %d rules", got)
	}
}

func TestDepGraphSCC(t *testing.T) {
	p := &Program{}
	// Mutual recursion: even/odd.
	p.AddRule(Rule{Head: NewAtom("even", v("X")), Body: []Atom{NewAtom("pred", v("X"), v("Y")), NewAtom("odd", v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("odd", v("X")), Body: []Atom{NewAtom("pred", v("X"), v("Y")), NewAtom("even", v("Y"))}})
	// Self recursion.
	p.AddRule(Rule{Head: NewAtom("tc", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("tc", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Z")), NewAtom("tc", v("Z"), v("Y"))}})
	// Nonrecursive.
	p.AddRule(Rule{Head: NewAtom("top", v("X")), Body: []Atom{NewAtom("tc", sym("a"), v("X"))}})

	g := NewDepGraph(p)
	if !g.SameSCC("even/1", "odd/1") {
		t.Error("even and odd not in same SCC")
	}
	if !g.Recursive("even/1") || !g.Recursive("tc/2") {
		t.Error("recursive predicates not detected")
	}
	if g.Recursive("top/1") || g.Recursive("e/2") {
		t.Error("nonrecursive predicate reported recursive")
	}
	// Strata: callee SCCs come first (Tarjan emits SCCs in reverse
	// topological order, so the SCC index is a stratification level).
	if g.SCCOf("tc/2") >= g.SCCOf("top/1") {
		t.Errorf("SCC(tc)=%d should precede SCC(top)=%d", g.SCCOf("tc/2"), g.SCCOf("top/1"))
	}
	if g.SCCOf("nosuch/9") != -1 {
		t.Error("unknown predicate should have SCC -1")
	}
}

func TestClassify(t *testing.T) {
	p := &Program{}
	// linear: tc
	p.AddRule(Rule{Head: NewAtom("tc", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("tc", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Z")), NewAtom("tc", v("Z"), v("Y"))}})
	// nonlinear: sib2 (two recursive literals)
	p.AddRule(Rule{Head: NewAtom("nl", v("X"), v("Y")), Body: []Atom{NewAtom("nl", v("X"), v("Z")), NewAtom("nl", v("Z"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("nl", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Y"))}})
	// nested linear: outer calls inner, inner recursive
	p.AddRule(Rule{Head: NewAtom("inner", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("inner", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Z")), NewAtom("inner", v("Z"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("outer", v("X"), v("Y")), Body: []Atom{NewAtom("outer", v("X"), v("Z")), NewAtom("inner", v("Z"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("outer", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Y"))}})
	// mutual
	p.AddRule(Rule{Head: NewAtom("m1", v("X")), Body: []Atom{NewAtom("m2", v("X"))}})
	p.AddRule(Rule{Head: NewAtom("m2", v("X")), Body: []Atom{NewAtom("m1", v("X"))}})
	// nonrecursive
	p.AddRule(Rule{Head: NewAtom("nr", v("X")), Body: []Atom{NewAtom("e", v("X"), v("X"))}})

	g := NewDepGraph(p)
	cases := map[string]RecursionClass{
		"tc/2":    ClassLinear,
		"nl/2":    ClassNonlinear,
		"outer/2": ClassNestedLinear,
		"m1/1":    ClassMutual,
		"nr/1":    ClassNonrecursive,
	}
	for key, want := range cases {
		if got := Classify(p, g, key); got != want {
			t.Errorf("Classify(%s) = %v, want %v", key, got, want)
		}
	}
}

func TestClassifyStrings(t *testing.T) {
	classes := []RecursionClass{ClassNonrecursive, ClassLinear, ClassNestedLinear, ClassNonlinear, ClassMutual}
	for _, c := range classes {
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestSplitKey(t *testing.T) {
	for _, c := range []struct {
		key   string
		pred  string
		arity int
	}{
		{"same_country/2", "same_country", 2},
		{"p/0", "p", 0},
		{"m$sg@bf/1", "m$sg@bf", 1},
		{"a/b/3", "a/b", 3},
		{NewAtom("parent", v("X"), sym("ann")).Key(), "parent", 2},
	} {
		pred, arity, err := SplitKey(c.key)
		if err != nil || pred != c.pred || arity != c.arity {
			t.Errorf("SplitKey(%q) = %q, %d, %v; want %q, %d", c.key, pred, arity, err, c.pred, c.arity)
		}
	}
	for _, bad := range []string{"", "p", "p/", "/2", "p/x", "p/-1", "p/+2", "p/-0", "p/2 ", "p/1x", "p/0x10", "p/99999999999999999999"} {
		if pred, arity, err := SplitKey(bad); err == nil {
			t.Errorf("SplitKey(%q) = %q, %d; want an error for a malformed key", bad, pred, arity)
		}
	}
}
