package seminaive

import (
	"errors"
	"strings"
	"testing"

	"chainsplit/internal/obsv"
	"chainsplit/internal/term"
)

func TestNegationInRecursiveBody(t *testing.T) {
	// Reach only through open nodes: negation on an EDB predicate
	// inside the recursive rule.
	cat, _, err := run(t, `
open(a). open(b). open(c).
edge(a, b). edge(b, c). edge(b, x). edge(x, c).
reach(X, Y) :- edge(X, Y), \+ closed(Y).
reach(X, Y) :- edge(X, Z), \+ closed(Z), reach(Z, Y).
closed(x).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := cat.Get("reach")
	// x is closed: no edge may END there (rule 1's guard) and no path
	// may pass THROUGH it (rule 2's guard); paths may still START at x.
	if rel.Contains(tupOf("b", "x")) || rel.Contains(tupOf("a", "x")) {
		t.Errorf("closed target reached: %v", rel.Sorted())
	}
	if !rel.Contains(tupOf("a", "c")) {
		t.Errorf("missing reach(a,c) via the open route: %v", rel.Sorted())
	}
}

func tupOf(vals ...string) (t []term.Term) {
	for _, v := range vals {
		t = append(t, term.NewSym(v))
	}
	return t
}

func TestNegationUnboundRejected(t *testing.T) {
	// \+ q(Y) with Y never bound: unsafe.
	_, _, err := run(t, `
p(X) :- n(X), \+ q(Y).
n(1). q(2).
`, Options{})
	if !errors.Is(err, ErrUnsafe) {
		t.Errorf("err = %v, want ErrUnsafe", err)
	}
}

func TestNegatedBuiltinInRule(t *testing.T) {
	cat, _, err := run(t, `
odd_pair(X, Y) :- n(X), n(Y), \+ X = Y.
n(1). n(2).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Get("odd_pair").Len(); got != 2 {
		t.Errorf("odd_pair = %d tuples, want 2", got)
	}
}

func TestNegationOnEmptyRelationHolds(t *testing.T) {
	cat, _, err := run(t, `
lonely(X) :- n(X), \+ friend(X, X).
n(1).
friend(2, 2).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Get("lonely").Len() != 1 {
		t.Errorf("lonely = %v", cat.Get("lonely"))
	}
	// Entirely absent relation: negation trivially holds.
	cat2, _, err := run(t, `
lonely(X) :- n(X), \+ ghost(X).
n(1).
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Get("lonely").Len() != 1 {
		t.Errorf("lonely (absent relation) = %v", cat2.Get("lonely"))
	}
}

func TestDeltaTraceNamesSCC(t *testing.T) {
	_, stats, err := run(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c).
`, Options{Tracer: obsv.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range stats.Deltas {
		if strings.Contains(d.SCC, "tc") {
			found = true
		}
	}
	if !found {
		t.Errorf("trace SCC labels missing tc: %+v", stats.Deltas)
	}
}

func TestBuiltinTypeErrorSurfaces(t *testing.T) {
	_, _, err := run(t, `
bad(X) :- s(X), X < 3.
s(hello).
`, Options{})
	if err == nil {
		t.Fatal("type error swallowed")
	}
	if !strings.Contains(err.Error(), "type error") {
		t.Errorf("err = %v", err)
	}
}
