package builtin

import (
	"errors"
	"fmt"
	"testing"

	"chainsplit/internal/term"
)

func evalB(t *testing.T, name string, arity int, args ...term.Term) ([]term.Subst, error) {
	t.Helper()
	b := Lookup(name, arity)
	if b == nil {
		t.Fatalf("builtin %s/%d missing", name, arity)
	}
	return solve(b, term.NewSubst(), args)
}

func TestMinus(t *testing.T) {
	sols, err := evalB(t, "minus", 3, term.NewInt(7), term.NewInt(3), term.NewVar("C"))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(4)) {
		t.Errorf("minus bbf: %v %v", sols, err)
	}
	sols, err = evalB(t, "minus", 3, term.NewInt(7), term.NewVar("B"), term.NewInt(4))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(3)) {
		t.Errorf("minus bfb: %v %v", sols, err)
	}
	sols, err = evalB(t, "minus", 3, term.NewVar("A"), term.NewInt(3), term.NewInt(4))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("A")), term.NewInt(7)) {
		t.Errorf("minus fbb: %v %v", sols, err)
	}
	if _, err := evalB(t, "minus", 3, term.NewInt(7), term.NewVar("B"), term.NewVar("C")); !errors.Is(err, ErrInsufficient) {
		t.Errorf("minus bff err = %v", err)
	}
}

func TestMod(t *testing.T) {
	sols, err := evalB(t, "mod", 3, term.NewInt(7), term.NewInt(3), term.NewVar("C"))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(1)) {
		t.Errorf("mod: %v %v", sols, err)
	}
	// Negative dividend: result normalized into [0, b).
	sols, err = evalB(t, "mod", 3, term.NewInt(-7), term.NewInt(3), term.NewVar("C"))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("C")), term.NewInt(2)) {
		t.Errorf("mod negative: %v %v", sols, err)
	}
	if _, err := evalB(t, "mod", 3, term.NewInt(7), term.NewInt(0), term.NewVar("C")); !errors.Is(err, ErrType) {
		t.Errorf("mod by zero err = %v", err)
	}
}

func TestAbs(t *testing.T) {
	sols, err := evalB(t, "abs", 2, term.NewInt(-5), term.NewVar("B"))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("B")), term.NewInt(5)) {
		t.Errorf("abs: %v %v", sols, err)
	}
	// Check mode: abs(5, 5) succeeds, abs(5, -5) fails.
	if sols, _ := evalB(t, "abs", 2, term.NewInt(5), term.NewInt(5)); len(sols) != 1 {
		t.Error("abs(5,5) failed")
	}
	if sols, _ := evalB(t, "abs", 2, term.NewInt(5), term.NewInt(-5)); len(sols) != 0 {
		t.Error("abs(5,-5) succeeded")
	}
}

func TestBetween(t *testing.T) {
	sols, err := evalB(t, "between", 3, term.NewInt(1), term.NewInt(4), term.NewVar("X"))
	if err != nil || len(sols) != 4 {
		t.Fatalf("between enum: %v %v", sols, err)
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if !term.Equal(sols[i].Resolve(term.NewVar("X")), term.NewInt(want)) {
			t.Errorf("between[%d] = %v", i, sols[i].Resolve(term.NewVar("X")))
		}
	}
	// Membership test mode.
	if sols, _ := evalB(t, "between", 3, term.NewInt(1), term.NewInt(4), term.NewInt(3)); len(sols) != 1 {
		t.Error("between(1,4,3) failed")
	}
	if sols, _ := evalB(t, "between", 3, term.NewInt(1), term.NewInt(4), term.NewInt(9)); len(sols) != 0 {
		t.Error("between(1,4,9) succeeded")
	}
	// Empty range.
	if sols, _ := evalB(t, "between", 3, term.NewInt(4), term.NewInt(1), term.NewVar("X")); len(sols) != 0 {
		t.Error("between(4,1,X) nonempty")
	}
	b := Lookup("between", 3)
	if b.FiniteUnder("bbf") != true || b.FiniteUnder("fbf") != false {
		t.Error("between finite modes wrong")
	}
}

func TestLength(t *testing.T) {
	sols, err := evalB(t, "length", 2, term.IntList(9, 8, 7), term.NewVar("N"))
	if err != nil || len(sols) != 1 || !term.Equal(sols[0].Resolve(term.NewVar("N")), term.NewInt(3)) {
		t.Errorf("length: %v %v", sols, err)
	}
	if _, err := evalB(t, "length", 2, term.NewVar("L"), term.NewInt(3)); !errors.Is(err, ErrInsufficient) {
		t.Errorf("length fb err = %v", err)
	}
	if _, err := evalB(t, "length", 2, term.NewInt(9), term.NewVar("N")); !errors.Is(err, ErrType) {
		t.Errorf("length of non-list err = %v", err)
	}
}

// TestRegisterAdapter checks the adapter Register puts around a user
// builtin: it runs on an empty substitution and the arguments as the
// caller resolved them, and each substitution it returns comes back as
// the arguments resolved under it, a fresh variable included.
func TestRegisterAdapter(t *testing.T) {
	err := Register("adapter_probe", 2, []string{"bf"}, func(s term.Subst, args []term.Term) ([]term.Subst, error) {
		if s.String() != "{}" {
			t.Errorf("substitution %s, want an empty one", s)
		}
		one, two := s.Clone(), s.Clone()
		if !term.Unify(one, args[1], term.NewComp("p", args[0], term.NewVar("Fresh"))) || !term.Unify(two, args[1], args[0]) {
			t.Fatal("unify failed")
		}
		return []term.Subst{one, two}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	args := []term.Term{term.IntList(1, 2), term.NewVar("$3")}
	sols, err := Lookup("adapter_probe", 2).Solve(args)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sols); got != "[[[1, 2] p([1, 2], Fresh)] [[1, 2] [1, 2]]]" {
		t.Errorf("solutions %s", got)
	}
	if err := Register("cons", 3, nil, func(term.Subst, []term.Term) ([]term.Subst, error) { return nil, nil }); err == nil {
		t.Error("Register overrode the core builtin cons/3")
	}
}
