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
	sols, err := b.Eval(s, args)
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
	sols, err := b.Eval(s, args)
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
	sols, err := b.Eval(s, []term.Term{term.NewVar("H"), term.NewVar("T"), term.EmptyList})
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
	_, err := b.Eval(s, []term.Term{term.NewInt(1), term.NewVar("W1"), term.NewVar("W")})
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
	sols, err := b.Eval(s, []term.Term{term.NewVar("X"), term.EmptyList})
	if err != nil || len(sols) != 1 {
		t.Fatalf("=: sols=%v err=%v", sols, err)
	}
	if got := sols[0].Resolve(term.NewVar("X")); !term.Equal(got, term.EmptyList) {
		t.Errorf("X = %v", got)
	}
	// Failing case.
	sols, err = b.Eval(s, []term.Term{term.NewInt(1), term.NewInt(2)})
	if err != nil || len(sols) != 0 {
		t.Errorf("1 = 2 gave sols=%v err=%v", sols, err)
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
		sols, err := b.Eval(term.NewSubst(), []term.Term{term.NewInt(c.a), term.NewInt(c.b)})
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
	_, err := b.Eval(term.NewSubst(), []term.Term{term.NewVar("X"), term.NewInt(2)})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
}

func TestComparisonTypeError(t *testing.T) {
	b := Lookup("<", 2)
	_, err := b.Eval(term.NewSubst(), []term.Term{term.NewSym("a"), term.NewInt(2)})
	if !errors.Is(err, ErrType) {
		t.Errorf("err = %v, want ErrType", err)
	}
}

func TestPlusAllModes(t *testing.T) {
	b := Lookup("plus", 3)
	// bbf
	sols, err := b.Eval(term.NewSubst(), []term.Term{term.NewInt(2), term.NewInt(3), term.NewVar("C")})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(5)) {
		t.Errorf("plus bbf failed: %v %v", sols, err)
	}
	// bfb
	sols, err = b.Eval(term.NewSubst(), []term.Term{term.NewInt(2), term.NewVar("B"), term.NewInt(5)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(3)) {
		t.Errorf("plus bfb failed: %v %v", sols, err)
	}
	// fbb
	sols, err = b.Eval(term.NewSubst(), []term.Term{term.NewVar("A"), term.NewInt(3), term.NewInt(5)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("A")), term.NewInt(2)) {
		t.Errorf("plus fbb failed: %v %v", sols, err)
	}
	// consistency check: plus(2,3,6) fails
	sols, err = b.Eval(term.NewSubst(), []term.Term{term.NewInt(2), term.NewInt(3), term.NewInt(6)})
	if err != nil || len(sols) != 0 {
		t.Errorf("plus(2,3,6) gave %v %v", sols, err)
	}
	// one bound: insufficient
	_, err = b.Eval(term.NewSubst(), []term.Term{term.NewInt(2), term.NewVar("B"), term.NewVar("C")})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("plus bff err = %v, want ErrInsufficient", err)
	}
}

func TestNeq(t *testing.T) {
	b := Lookup("\\=", 2)
	sols, err := b.Eval(term.NewSubst(), []term.Term{term.NewInt(1), term.NewInt(2)})
	if err != nil || len(sols) != 1 {
		t.Errorf("1 \\= 2: %v %v", sols, err)
	}
	sols, err = b.Eval(term.NewSubst(), []term.Term{term.NewSym("a"), term.NewSym("a")})
	if err != nil || len(sols) != 0 {
		t.Errorf("a \\= a: %v %v", sols, err)
	}
	_, err = b.Eval(term.NewSubst(), []term.Term{term.NewVar("X"), term.NewSym("a")})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("X \\= a err = %v", err)
	}
}

func TestTimes(t *testing.T) {
	b := Lookup("times", 3)
	sols, err := b.Eval(term.NewSubst(), []term.Term{term.NewInt(3), term.NewInt(4), term.NewVar("C")})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(12)) {
		t.Errorf("times bbf: %v %v", sols, err)
	}
	sols, err = b.Eval(term.NewSubst(), []term.Term{term.NewInt(3), term.NewVar("B"), term.NewInt(12)})
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(4)) {
		t.Errorf("times bfb: %v %v", sols, err)
	}
}

// TestEvalDoesNotMutateInput calls every core builtin in a mode with a
// solution and checks the substitution it received is left as it was:
// solutions are clones, so a caller may keep extending its own.
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
		before := s.String()
		sols, err := Lookup(name, n).Eval(s, args)
		if err != nil || len(sols) == 0 {
			t.Errorf("%s%v: %d solutions, error %v; want a solution", k, args, len(sols), err)
			continue
		}
		if got := s.String(); got != before {
			t.Errorf("%s: input substitution %s became %s", k, before, got)
		}
	}
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
