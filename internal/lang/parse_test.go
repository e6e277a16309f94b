package lang

import (
	"strings"
	"testing"

	"chainsplit/internal/term"
)

func TestParseSG(t *testing.T) {
	src := `
% the paper's Example 1.1
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
parent(ann, bob).
sibling(bob, bob).
?- sg(ann, Y).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(res.Program.Rules))
	}
	if len(res.Program.Facts) != 2 {
		t.Fatalf("facts = %d, want 2", len(res.Program.Facts))
	}
	if len(res.Queries) != 1 {
		t.Fatalf("queries = %d, want 1", len(res.Queries))
	}
	r := res.Program.Rules[0]
	if r.Head.Pred != "sg" || r.Head.Arity() != 2 {
		t.Errorf("head = %v", r.Head)
	}
	if len(r.Body) != 3 || r.Body[1].Pred != "sg" {
		t.Errorf("body = %v", r.Body)
	}
	q := res.Queries[0]
	if q.Goals[0].Pred != "sg" || !term.Equal(q.Goals[0].Args[0], term.NewSym("ann")) {
		t.Errorf("query = %v", q)
	}
}

func TestParseLists(t *testing.T) {
	src := `append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
?- append([1,2], [3], W).`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 2 || len(res.Program.Facts) != 0 {
		// append([], L, L) has variables so it is a (non-ground) rule;
		// AddRule only diverts ground facts.
		t.Fatalf("rules=%d facts=%d", len(res.Program.Rules), len(res.Program.Facts))
	}
	q := res.Queries[0].Goals[0]
	if !term.Equal(q.Args[0], term.IntList(1, 2)) {
		t.Errorf("query arg0 = %v", q.Args[0])
	}
	rule := res.Program.Rules[1]
	head := rule.Head
	if head.Pred != "append" {
		t.Fatalf("head %v", head)
	}
	cell, ok := head.Args[0].(term.Comp)
	if !ok || cell.Functor != term.ConsFunctor {
		t.Errorf("head arg0 = %v, want cons cell", head.Args[0])
	}
}

func TestParseInfixBuiltins(t *testing.T) {
	src := `p(X, Y) :- q(X), X < Y, Y >= 3, X =< 10, X = Y, X \= 0, Y > 1.`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := res.Program.Rules[0].Body
	preds := []string{"q", "<", ">=", "=<", "=", "\\=", ">"}
	if len(body) != len(preds) {
		t.Fatalf("body = %v", body)
	}
	for i, p := range preds {
		if body[i].Pred != p {
			t.Errorf("body[%d].Pred = %q, want %q", i, body[i].Pred, p)
		}
	}
}

func TestParsePragma(t *testing.T) {
	src := `@acyclic parent.
@threshold split 2.
p(a).`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Pragmas) != 2 {
		t.Fatalf("pragmas = %v", res.Program.Pragmas)
	}
	if pr := res.Program.Pragmas[0]; pr.Name != "acyclic" || len(pr.Args) != 1 || pr.Args[0] != term.NewSym("parent") {
		t.Errorf("pragma = %v, want @acyclic parent", pr)
	}
	pr := res.Program.Pragmas[1]
	if pr.Name != "threshold" || len(pr.Args) != 2 {
		t.Errorf("pragma = %v", pr)
	}
}

func TestParsePartialLists(t *testing.T) {
	tm, err := ParseTerm("[1, 2 | T]")
	if err != nil {
		t.Fatal(err)
	}
	want := term.Cons(term.NewInt(1), term.Cons(term.NewInt(2), term.NewVar("T")))
	if !term.Equal(tm, want) {
		t.Errorf("got %v, want %v", tm, want)
	}
}

func TestParseNegativeInt(t *testing.T) {
	tm, err := ParseTerm("-42")
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(tm, term.NewInt(-42)) {
		t.Errorf("got %v", tm)
	}
}

func TestParseString(t *testing.T) {
	tm, err := ParseTerm(`"hi\n\"x\""`)
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(tm, term.NewStr("hi\n\"x\"")) {
		t.Errorf("got %v", tm)
	}
}

func TestParseQueryForm(t *testing.T) {
	for _, src := range []string{"sg(ann, Y)", "?- sg(ann, Y).", "sg(ann, Y)."} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", src, err)
			continue
		}
		if len(q.Goals) != 1 || q.Goals[0].Pred != "sg" {
			t.Errorf("ParseQuery(%q) = %v", src, q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"p(",                // unterminated
		"p(a) :- .",         // missing body
		"p(a)",              // missing period
		"[1,2] :- q.",       // list as head
		`p("unterminated`,   // bad string
		"p(a) q(b).",        // missing separator
		"?- .",              // empty query
		"@.",                // pragma missing name
		"p(a,).",            // trailing comma
		"p(a) :- q(a), X -", // stray '-'
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T", src, err)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("p(a).\nq(b) :- r(b)\ns(c).")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if se.Line != 3 {
		t.Errorf("error line = %d, want 3 (missing '.' detected at next clause)", se.Line)
	}
	if !strings.Contains(se.Error(), "syntax error") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestRoundTrip(t *testing.T) {
	src := `travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := res.Program.String()
	res2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if res2.Program.String() != printed {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", printed, res2.Program.String())
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "% leading comment\n  p(a).  % trailing\n\n\tq(b).\n% final"
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Facts) != 2 {
		t.Errorf("facts = %v", res.Program.Facts)
	}
}

func TestZeroArityGoal(t *testing.T) {
	res, err := Parse("p :- q, r.\nq.\nr.")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 1 || len(res.Program.Facts) != 2 {
		t.Fatalf("rules=%v facts=%v", res.Program.Rules, res.Program.Facts)
	}
	if res.Program.Rules[0].Head.Pred != "p" || res.Program.Rules[0].Head.Arity() != 0 {
		t.Errorf("head = %v", res.Program.Rules[0].Head)
	}
}
