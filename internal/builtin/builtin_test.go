package builtin

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"chainsplit/internal/term"
)

func TestLookup(t *testing.T) {
	for _, k := range []struct {
		name  string
		arity int
	}{
		{"cons", 3}, {"=", 2}, {"<", 2}, {">", 2}, {"=<", 2}, {">=", 2},
		{"\\=", 2}, {"plus", 3}, {"times", 3},
	} {
		if Lookup(k.name, k.arity) == nil {
			t.Errorf("Lookup(%s/%d) = nil", k.name, k.arity)
		}
	}
	if Lookup("cons", 2) != nil {
		t.Error("cons/2 should not exist")
	}
	if IsBuiltin("parent", 2) {
		t.Error("parent/2 is not a builtin")
	}
}

func TestConsConstruct(t *testing.T) {
	b := Lookup("cons", 3)
	s := term.NewSubst()
	args := []term.Term{term.NewInt(5), term.IntList(7, 1), term.NewVar("L")}
	sols, err := solve(b, s, args)
	if err != nil || len(sols) != 1 {
		t.Fatalf("cons construct: sols=%v err=%v", sols, err)
	}
	got := sols[0].Resolve(term.NewVar("L"))
	if !term.Equal(got, term.IntList(5, 7, 1)) {
		t.Errorf("L = %v, want [5, 7, 1]", got)
	}
}

func TestConsDecompose(t *testing.T) {
	b := Lookup("cons", 3)
	s := term.NewSubst()
	args := []term.Term{term.NewVar("H"), term.NewVar("T"), term.IntList(5, 7, 1)}
	sols, err := solve(b, s, args)
	if err != nil || len(sols) != 1 {
		t.Fatalf("cons decompose: sols=%v err=%v", sols, err)
	}
	if got := sols[0].Resolve(term.NewVar("H")); !term.Equal(got, term.NewInt(5)) {
		t.Errorf("H = %v", got)
	}
	if got := sols[0].Resolve(term.NewVar("T")); !term.Equal(got, term.IntList(7, 1)) {
		t.Errorf("T = %v", got)
	}
}

func TestConsEmptyListFails(t *testing.T) {
	b := Lookup("cons", 3)
	s := term.NewSubst()
	sols, err := solve(b, s, []term.Term{term.NewVar("H"), term.NewVar("T"), term.EmptyList})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(sols) != 0 {
		t.Errorf("cons(H,T,[]) should fail, got %d solutions", len(sols))
	}
}

func TestConsInsufficient(t *testing.T) {
	// cons(X1, W1, W) with only X1 bound: the paper's infinitely
	// evaluable chain element. Must report ErrInsufficient, not loop.
	b := Lookup("cons", 3)
	s := term.NewSubst()
	_, err := solve(b, s, []term.Term{term.NewInt(1), term.NewVar("W1"), term.NewVar("W")})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
}

func TestConsFiniteModes(t *testing.T) {
	b := Lookup("cons", 3)
	cases := map[string]bool{
		"bbf": true, "bbb": true, "ffb": true, "bfb": true, "fbb": true,
		"bff": false, "fff": false, "fbf": false,
	}
	for adorn, want := range cases {
		if got := b.FiniteUnder(adorn); got != want {
			t.Errorf("cons FiniteUnder(%s) = %v, want %v", adorn, got, want)
		}
	}
}

func TestEqUnifies(t *testing.T) {
	b := Lookup("=", 2)
	s := term.NewSubst()
	sols, err := solve(b, s, []term.Term{term.NewVar("X"), term.EmptyList})
	if err != nil || len(sols) != 1 {
		t.Fatalf("=: sols=%v err=%v", sols, err)
	}
	if got := sols[0].Resolve(term.NewVar("X")); !term.Equal(got, term.EmptyList) {
		t.Errorf("X = %v", got)
	}
	// Failing case.
	sols, err = solve(b, s, []term.Term{term.NewInt(1), term.NewInt(2)})
	if err != nil || len(sols) != 0 {
		t.Errorf("1 = 2 gave sols=%v err=%v", sols, err)
	}
}

// TestEqAnswersCommonInstance checks the vector =/2 answers: its
// arguments' common instance in both positions, and none when they do
// not unify, also when neither side is ground.
func TestEqAnswersCommonInstance(t *testing.T) {
	x, y, a1, a2 := term.NewVar("X"), term.NewVar("Y"), term.Anon(1), term.Anon(2)
	a, b, n1 := term.NewSym("a"), term.NewSym("b"), term.NewInt(1)
	for _, c := range []struct {
		l, r term.Term
		want string
	}{
		{x, term.EmptyList, "[[[] []]]"},
		{term.EmptyList, x, "[[[] []]]"},
		{n1, n1, "[[1 1]]"},
		{n1, term.NewInt(2), "[]"},
		{term.NewComp("f", x, b), term.NewComp("f", a, y), "[[f(a, b) f(a, b)]]"},
		{term.NewComp("g", x, a1), term.NewComp("f", a2, n1), "[]"},
		{term.NewComp("g", a1, n1), term.NewComp("g", term.NewInt(2), a2), "[[g(2, 1) g(2, 1)]]"},
	} {
		sols, err := Lookup("=", 2).Solve([]term.Term{c.l, c.r})
		if got := fmt.Sprint(sols); err != nil || got != c.want {
			t.Errorf("%v = %v: %s, %v; want %s", c.l, c.r, got, err, c.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want bool
	}{
		{"<", 1, 2, true}, {"<", 2, 2, false}, {">", 9, 4, true},
		{">", 4, 9, false}, {"=<", 2, 2, true}, {"=<", 3, 2, false},
		{">=", 2, 2, true}, {">=", 1, 2, false},
	}
	for _, c := range cases {
		b := Lookup(c.op, 2)
		sols, err := solve(b, term.NewSubst(), []term.Term{term.NewInt(c.a), term.NewInt(c.b)})
		if err != nil {
			t.Errorf("%d %s %d: err %v", c.a, c.op, c.b, err)
			continue
		}
		if (len(sols) == 1) != c.want {
			t.Errorf("%d %s %d: got %d solutions, want success=%v", c.a, c.op, c.b, len(sols), c.want)
		}
	}
}

func TestComparisonUnbound(t *testing.T) {
	b := Lookup("<", 2)
	_, err := solve(b, term.NewSubst(), []term.Term{term.NewVar("X"), term.NewInt(2)})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
}

func TestComparisonTypeError(t *testing.T) {
	b := Lookup("<", 2)
	_, err := solve(b, term.NewSubst(), []term.Term{term.NewSym("a"), term.NewInt(2)})
	if !errors.Is(err, ErrType) {
		t.Errorf("err = %v, want ErrType", err)
	}
}

func TestPlusAllModes(t *testing.T) {
	b := Lookup("plus", 3)
	// bbf
	sols, err := solve(b, term.NewSubst(), []term.Term{term.NewInt(2), term.NewInt(3), term.NewVar("C")})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(5)) {
		t.Errorf("plus bbf failed: %v %v", sols, err)
	}
	// bfb
	sols, err = solve(b, term.NewSubst(), []term.Term{term.NewInt(2), term.NewVar("B"), term.NewInt(5)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(3)) {
		t.Errorf("plus bfb failed: %v %v", sols, err)
	}
	// fbb
	sols, err = solve(b, term.NewSubst(), []term.Term{term.NewVar("A"), term.NewInt(3), term.NewInt(5)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("A")), term.NewInt(2)) {
		t.Errorf("plus fbb failed: %v %v", sols, err)
	}
	// consistency check: plus(2,3,6) fails
	sols, err = solve(b, term.NewSubst(), []term.Term{term.NewInt(2), term.NewInt(3), term.NewInt(6)})
	if err != nil || len(sols) != 0 {
		t.Errorf("plus(2,3,6) gave %v %v", sols, err)
	}
	// one bound: insufficient
	_, err = solve(b, term.NewSubst(), []term.Term{term.NewInt(2), term.NewVar("B"), term.NewVar("C")})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("plus bff err = %v, want ErrInsufficient", err)
	}
}

func TestNeq(t *testing.T) {
	b := Lookup("\\=", 2)
	sols, err := solve(b, term.NewSubst(), []term.Term{term.NewInt(1), term.NewInt(2)})
	if err != nil || len(sols) != 1 {
		t.Errorf("1 \\= 2: %v %v", sols, err)
	}
	sols, err = solve(b, term.NewSubst(), []term.Term{term.NewSym("a"), term.NewSym("a")})
	if err != nil || len(sols) != 0 {
		t.Errorf("a \\= a: %v %v", sols, err)
	}
	_, err = solve(b, term.NewSubst(), []term.Term{term.NewVar("X"), term.NewSym("a")})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("X \\= a err = %v", err)
	}
}

func TestTimes(t *testing.T) {
	b := Lookup("times", 3)
	sols, err := solve(b, term.NewSubst(), []term.Term{term.NewInt(3), term.NewInt(4), term.NewVar("C")})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(12)) {
		t.Errorf("times bbf: %v %v", sols, err)
	}
	sols, err = solve(b, term.NewSubst(), []term.Term{term.NewInt(3), term.NewVar("B"), term.NewInt(12)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(4)) {
		t.Errorf("times bfb: %v %v", sols, err)
	}
}

// TestEvalDoesNotMutateInput calls every core builtin in a mode with a
// solution and checks the arguments it received are left as they were:
// a caller may unify each solution with them.
func TestEvalDoesNotMutateInput(t *testing.T) {
	a, l, out := term.NewVar("A"), term.NewVar("L"), term.NewVar("Out")
	calls := map[string][]term.Term{
		"cons/3":    {term.NewInt(1), term.EmptyList, out},
		"=/2":       {out, a},
		"\\=/2":     {a, term.NewInt(3)},
		"</2":       {a, term.NewInt(3)},
		">/2":       {term.NewInt(3), a},
		"=</2":      {a, term.NewInt(2)},
		">=/2":      {a, term.NewInt(2)},
		"plus/3":    {a, term.NewInt(1), out},
		"minus/3":   {a, term.NewInt(1), out},
		"mod/3":     {term.NewInt(7), a, out},
		"abs/2":     {term.NewInt(-4), out},
		"between/3": {term.NewInt(1), a, out},
		"length/2":  {l, out},
		"times/3":   {a, term.NewInt(3), out},
	}
	for k := range core {
		name := fmt.Sprintf("%s/%d", k.name, k.arity)
		if _, ok := calls[name]; !ok {
			t.Errorf("core builtin %s has no call here", name)
		}
	}
	for k, args := range calls {
		name, arity, _ := strings.Cut(k, "/")
		n, _ := strconv.Atoi(arity)
		s := term.NewSubst()
		s.Bind(a, term.NewInt(2))
		s.Bind(l, term.IntList(1, 2))
		resolved := s.ResolveAll(args)
		before := fmt.Sprint(resolved)
		sols, err := Lookup(name, n).Solve(resolved)
		if err != nil || len(sols) == 0 {
			t.Errorf("%s%v: %d solutions, error %v; want a solution", k, args, len(sols), err)
			continue
		}
		if got := fmt.Sprint(resolved); got != before {
			t.Errorf("%s: arguments %s became %s", k, before, got)
		}
	}
}

// solve runs b on args resolved under s and returns, for each solution
// vector that unifies with them, s extended by that unification: the
// substitution form the cases below were written in.
func solve(b *Builtin, s term.Subst, args []term.Term) ([]term.Subst, error) {
	resolved := s.ResolveAll(args)
	vecs, err := b.Solve(resolved)
	var sols []term.Subst
	for _, v := range vecs {
		sol := s.Clone()
		ok := true
		for i := range v {
			ok = ok && term.Unify(sol, resolved[i], v[i])
		}
		if ok {
			sols = append(sols, sol)
		}
	}
	return sols, err
}

// BenchmarkLookup times one registry hit and one miss per op, the two
// lookups an engine makes for a builtin literal and an ordinary one.
func BenchmarkLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Lookup("cons", 3) == nil || Lookup("append", 3) != nil {
			b.Fatal("unexpected lookup result")
		}
	}
}
