package program

import (
	"strings"
	"testing"

	"chainsplit/internal/term"
)

func TestNegatePositive(t *testing.T) {
	a := NewAtom("p", v("X"))
	n := a.Negate()
	if !n.Negated || a.Negated {
		t.Error("Negate mutated receiver or failed")
	}
	if n.Negate().Negated {
		t.Error("double Negate not positive")
	}
}

func TestNegatedAtomStrings(t *testing.T) {
	cases := []struct {
		atom Atom
		want string
	}{
		{NewAtom("p", v("X")).Negate(), "\\+ p(X)"},
		{NewAtom("p").Negate(), "\\+ p"},
		{NewAtom("=", term.NewInt(0), term.NewInt(0)).Negate(), "\\+ 0 = 0"},
		{NewAtom("<", v("X"), term.NewInt(3)).Negate(), "\\+ X < 3"},
	}
	for _, c := range cases {
		if got := c.atom.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestPragmaString(t *testing.T) {
	p := Pragma{Name: "threshold", Args: []term.Term{term.NewSym("split"), term.NewInt(4)}}
	if p.String() != "@threshold split 4." {
		t.Errorf("Pragma.String = %q", p.String())
	}
}

func TestProgramCloneIndependence(t *testing.T) {
	p := &Program{}
	p.AddRule(Rule{Head: NewAtom("p", sym("a"))})
	p.Pragmas = append(p.Pragmas, Pragma{Name: "x"})
	c := p.Clone()
	c.AddRule(Rule{Head: NewAtom("q", sym("b"))})
	if len(p.Facts) != 1 || len(c.Facts) != 2 {
		t.Errorf("clone shares fact storage: %d / %d", len(p.Facts), len(c.Facts))
	}
}

func TestRuleRenameConsistency(t *testing.T) {
	r := Rule{
		Head: NewAtom("p", v("X"), v("Y")),
		Body: []Atom{NewAtom("q", v("X")), NewAtom("r", v("Y")).Negate()},
	}
	rn := term.NewRenamer("_R")
	rr := r.Rename(rn)
	if !rr.Body[1].Negated {
		t.Error("rename lost negation")
	}
	if !term.Equal(rr.Head.Args[0], rr.Body[0].Args[0]) {
		t.Error("rename broke variable sharing")
	}
	if term.Equal(rr.Head.Args[0], r.Head.Args[0]) {
		t.Error("rename did not rename")
	}
}

func TestCheckStratifiedPositiveCycleOK(t *testing.T) {
	p := &Program{}
	p.AddRule(Rule{Head: NewAtom("tc", v("X"), v("Y")), Body: []Atom{NewAtom("e", v("X"), v("Z")), NewAtom("tc", v("Z"), v("Y"))}})
	p.AddRule(Rule{Head: NewAtom("ok", v("X")), Body: []Atom{NewAtom("n", v("X")), NewAtom("tc", v("X"), v("X")).Negate()}})
	g := NewDepGraph(p)
	if _, err := g.Stratify(); err != nil {
		t.Errorf("positive cycle with external negation wrongly rejected: %v", err)
	}
}

func TestProgramStringIncludesEverything(t *testing.T) {
	p := &Program{}
	p.Pragmas = append(p.Pragmas, Pragma{Name: "strategy", Args: []term.Term{term.NewSym("auto")}})
	p.AddRule(Rule{Head: NewAtom("p", v("X")), Body: []Atom{NewAtom("q", v("X"))}})
	p.AddRule(Rule{Head: NewAtom("f", sym("a"))})
	s := p.String()
	for _, want := range []string{"@strategy auto.", "p(X) :- q(X).", "f(a)."} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}
