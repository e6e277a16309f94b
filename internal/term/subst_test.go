package term

import (
	"fmt"
	"testing"
)

// bindings returns s's bindings as a map, newest binding of a name
// first (Bind never shadows one, so there is only one).
func bindings(s Subst) map[string]Term {
	m := map[string]Term{}
	for c := s.h.top; c != nil; c = c.next {
		if _, ok := m[c.name]; !ok {
			m[c.name] = c.val
		}
	}
	return m
}

// chainLen counts the cells of s's binding chain.
func chainLen(s Subst) int {
	n := 0
	for c := s.h.top; c != nil; c = c.next {
		n++
	}
	return n
}

func TestSubstSemantics(t *testing.T) {
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	one, two := NewInt(1), NewInt(2)
	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"clone and original bind independently", func() string {
			s := NewSubst()
			s.Bind(x, one)
			c := s.Clone()
			s.Bind(y, one)
			c.Bind(y, two)
			c.Bind(z, two)
			return s.String() + " " + c.String()
		}, "{X=1, Y=1} {X=1, Y=2, Z=2}"},
		{"unify extends its argument and no clone of it", func() string {
			s := NewSubst()
			c := s.Clone()
			Unify(s, NewComp("f", x, y), NewComp("f", one, two))
			return s.String() + " " + c.String()
		}, "{X=1, Y=2} {}"},
		{"walk follows var to var to value", func() string {
			s := NewSubst()
			s.Bind(x, y)
			s.Bind(y, z)
			s.Bind(z, two)
			return fmt.Sprint(s.Walk(x), s.Walk(y), s.Walk(NewVar("W")))
		}, "2 2 W"},
		{"walk stops at a compound, resolve enters it", func() string {
			s := NewSubst()
			s.Bind(x, y)
			s.Bind(y, NewComp("f", z))
			c := s.Clone()
			c.Bind(z, IntList(1, 2))
			return fmt.Sprint(s.Walk(x), " ", s.Resolve(x), " ", c.Resolve(NewComp("g", x)))
		}, "f(Z) f(Z) g(f([1, 2]))"},
		{"binding an equal value is a no-op", func() string {
			s := NewSubst()
			s.Bind(x, IntList(1, 2))
			s.Bind(x, Cons(one, Cons(two, EmptyList)))
			return fmt.Sprint(s, " ", chainLen(s))
		}, "{X=[1, 2]} 1"},
		{"rebinding panics", func() (msg string) {
			s := NewSubst()
			s.Bind(x, one)
			defer func() { msg = fmt.Sprint(recover()) }()
			s.Bind(x, two)
			return "no panic"
		}, "term: rebinding X from 1 to 2"},
		{"string lists each variable once, sorted", func() string {
			s := NewSubst()
			s.Bind(z, one)
			s.Bind(x, y)
			c := s.Clone()
			c.Bind(y, two)
			c.Bind(z, one)
			Unify(c, x, two)
			return c.String()
		}, "{X=Y, Y=2, Z=1}"},
	}
	for _, tc := range cases {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

var cloneSink Subst

// TestCloneAllocatesOnlyHead gates Clone at one allocation — the new
// head — however many bindings it shares. The clone goes to a package
// variable so escape analysis cannot keep it on the stack.
func TestCloneAllocatesOnlyHead(t *testing.T) {
	s := NewSubst()
	for i := 0; i < 16; i++ {
		s.Bind(NewVar(fmt.Sprintf("V%d", i)), NewInt(int64(i)))
	}
	allocs := testing.AllocsPerRun(100, func() { cloneSink = s.Clone() })
	if allocs > 1 {
		t.Errorf("Clone of a 16-binding substitution makes %.0f allocations, want <= 1", allocs)
	}
	if got, want := cloneSink.String(), s.String(); got != want {
		t.Errorf("clone %s, want %s", got, want)
	}
}
