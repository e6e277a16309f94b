package adorn

import (
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

func mustParse(t *testing.T, src string) *program.Program {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return program.Rectify(res.Program)
}

const appendSrc = `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`

func TestAtomAdornment(t *testing.T) {
	a := program.NewAtom("p", term.NewVar("X"), term.NewSym("c"), term.Cons(term.NewVar("Y"), term.NewVar("Z")))
	bound := map[string]bool{"X": true, "Y": true}
	if got := AtomAdornment(a, bound); got != "bbf" {
		t.Errorf("AtomAdornment = %q, want bbf", got)
	}
	bound["Z"] = true
	if got := AtomAdornment(a, bound); got != "bbb" {
		t.Errorf("AtomAdornment = %q, want bbb", got)
	}
}

func TestGoalAdornment(t *testing.T) {
	g := program.NewAtom("append", term.IntList(1, 2), term.IntList(3), term.NewVar("W"))
	if got := GoalAdornment(g); got != "bbf" {
		t.Errorf("GoalAdornment = %q", got)
	}
}

func TestAppendFiniteness(t *testing.T) {
	p := mustParse(t, appendSrc)
	an := NewAnalysis(p)
	cases := map[string]bool{
		"bbf": true, // forward append
		"ffb": true, // split a bound list all ways
		"bbb": true,
		"bff": false, // V free: infinitely many (V, [X…|V]) answers
		"fbf": false, // first and third free: infinitely many lists
		"fff": false,
	}
	for ad, want := range cases {
		if got := an.Finite("append", 3, ad); got != want {
			t.Errorf("Finite(append^%s) = %v, want %v", ad, got, want)
		}
	}
}

func TestAppendDelayedPortion(t *testing.T) {
	p := mustParse(t, appendSrc)
	an := NewAnalysis(p)
	// Find the recursive rule.
	var rec program.Rule
	for _, r := range p.RulesFor("append/3") {
		for _, b := range r.Body {
			if b.Pred == "append" {
				rec = r
			}
		}
	}
	if rec.Head.Pred == "" {
		t.Fatal("recursive rule not found")
	}
	// Under ^bbf (U, V bound — the paper's chain-split case): the cons
	// decomposing U is immediately evaluable; the cons rebuilding W is
	// delayed until the recursion returns from the exit rule.
	sched := an.ScheduleRule(rec, "bbf")
	if !sched.OK {
		t.Fatalf("schedule failed: %+v", sched)
	}
	if len(sched.Delayed) != 1 {
		t.Fatalf("delayed = %v, want exactly one literal", sched.Delayed)
	}
	delayedLit := rec.Body[sched.Delayed[0]]
	if delayedLit.Pred != "cons" {
		t.Errorf("delayed literal = %v, want a cons", delayedLit)
	}
	// The recursive call must be adorned bbf again (stable down phase).
	if cs := an.ScheduleChain(rec, "bbf"); !cs.OK || cs.RecAd != "bbf" {
		t.Errorf("recursive adornment = %q ok=%v, want bbf", cs.RecAd, cs.OK)
	}
}

func TestSGNoDelay(t *testing.T) {
	p := mustParse(t, `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
`)
	an := NewAnalysis(p)
	if !an.Finite("sg", 2, "bf") {
		t.Error("sg^bf should be finite (EDB relations are finite)")
	}
	var rec program.Rule
	for _, r := range p.RulesFor("sg/2") {
		if len(r.Body) == 3 {
			rec = r
		}
	}
	sched := an.ScheduleRule(rec, "bf")
	if !sched.OK {
		t.Fatalf("schedule failed: %+v", sched)
	}
	// parent(Y, Y1) is evaluable only after the recursive call binds
	// Y1… but being an EDB relation it is finite even fully free, so
	// nothing is forcibly delayed: the scheduler can take it any time.
	if len(sched.Delayed) != 0 {
		t.Errorf("function-free recursion has mandatory delays: %v", sched.Delayed)
	}
}

func TestTravelFiniteness(t *testing.T) {
	// The paper's travel recursion (§3, compiled form 3.6): the chain
	// contains flight, plus (fare sum) and cons (route construction).
	p := mustParse(t, `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
`)
	an := NewAnalysis(p)
	// Departure bound: finite (down the chain), even with route and
	// fare free — they are delayed.
	if !an.Finite("travel", 6, "fbffff") {
		t.Error("travel with departure bound should be finitely evaluable via chain-split")
	}
	var rec program.Rule
	for _, r := range p.RulesFor("travel/6") {
		if len(r.Body) == 5 {
			rec = r
		}
	}
	sched := an.ScheduleRule(rec, "fbffff")
	if !sched.OK {
		t.Fatalf("schedule failed: %+v", sched)
	}
	// plus and cons must be delayed (their inputs come from the
	// returning recursion); DT1 > AT1 is also delayed (DT1 is produced
	// by the recursive call).
	if len(sched.Delayed) != 3 {
		t.Errorf("delayed = %v, want 3 literals (>, plus, cons)", sched.Delayed)
	}
	for _, d := range sched.Delayed {
		switch rec.Body[d].Pred {
		case "plus", "cons", ">":
		default:
			t.Errorf("unexpected delayed literal %v", rec.Body[d])
		}
	}
}

func TestIsortFiniteness(t *testing.T) {
	p := mustParse(t, `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
`)
	an := NewAnalysis(p)
	if !an.Finite("isort", 2, "bf") {
		t.Error("isort^bf should be finite")
	}
	if !an.Finite("insert", 3, "bbf") {
		t.Error("insert^bbf should be finite")
	}
	if an.Finite("isort", 2, "fb") {
		// isort^fb: given a sorted list, enumerate its permutations —
		// the decomposition of Ys is possible (ffb cons) and insert
		// can run backwards… insert^ffb is finite, so isort^fb is
		// actually finite too. Verify rather than assert blindly:
		// insert(X, Zs, Ys) with Ys bound decomposes finitely.
		if !an.Finite("insert", 3, "ffb") {
			t.Error("inconsistent: isort^fb finite but insert^ffb not")
		}
	}
	if an.Finite("isort", 2, "ff") {
		t.Error("isort^ff must be infinite")
	}
}

func TestQsortFiniteness(t *testing.T) {
	p := mustParse(t, `
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls),
    qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	an := NewAnalysis(p)
	if !an.Finite("qsort", 2, "bf") {
		t.Error("qsort^bf should be finite")
	}
	if !an.Finite("partition", 4, "bbff") {
		t.Error("partition^bbff should be finite")
	}
	if an.Finite("qsort", 2, "ff") {
		t.Error("qsort^ff must be infinite")
	}
}

func TestBoundVarsOfHead(t *testing.T) {
	head := program.NewAtom("p", term.NewVar("X"), term.NewVar("Y"))
	b := BoundVarsOfHead(head, "bf")
	if !b["X"] || b["Y"] {
		t.Errorf("BoundVarsOfHead = %v", b)
	}
}

func TestKeyParse(t *testing.T) {
	k := Key("append", 3, "bff")
	if k != "append/3^bff" {
		t.Errorf("Key = %q", k)
	}
	p, a, ad := parseKey(k)
	if p != "append" || a != 3 || ad != "bff" {
		t.Errorf("parseKey = %q %d %q", p, a, ad)
	}
}

func TestStuckReported(t *testing.T) {
	p := mustParse(t, `bad(X, Y) :- plus(X, 1, Y).`)
	an := NewAnalysis(p)
	var r program.Rule = p.Rules[0]
	sched := an.ScheduleRule(r, "ff")
	if sched.OK || len(sched.Stuck) != 1 {
		t.Errorf("expected stuck schedule, got %+v", sched)
	}
	if an.Finite("bad", 2, "ff") {
		t.Error("bad^ff should be infinite")
	}
	if !an.Finite("bad", 2, "bf") {
		t.Error("bad^bf should be finite")
	}
}
