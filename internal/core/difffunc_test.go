package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// funcProgs are functional recursions evaluated both by the buffered
// evaluator (where the plan allows) and the top-down engine; the
// fuzzer compares them on random ground inputs under every finitely
// evaluable adornment.
const funcProgs = `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).

isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.

reverse(Xs, Ys) :- rev_acc(Xs, [], Ys).
rev_acc([], Acc, Acc).
rev_acc([X|Xs], Acc, Ys) :- rev_acc(Xs, [X|Acc], Ys).

evenlen([]).
evenlen([X|Xs]) :- oddlen(Xs).
oddlen([X|Xs]) :- evenlen(Xs).
`

func randList(rng *rand.Rand, n int) term.Term {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(7))
	}
	return term.IntList(vals...)
}

// concat returns the proper list a followed by the proper list b.
func concat(a, b term.Term) term.Term {
	c, ok := a.(term.Comp)
	if !ok {
		return b
	}
	return term.Cons(c.Args[0], concat(c.Args[1], b))
}

func canonicalAnswers(ans [][]term.Term) string {
	keys := make([]string, 0, len(ans))
	for _, a := range ans {
		parts := make([]string, len(a))
		for i, t := range a {
			parts[i] = t.String()
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestDifferentialFunctionalRecursions pins buffered and top-down
// evaluation to the same answers on random functional-goal instances.
func TestDifferentialFunctionalRecursions(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(6)
		list := randList(rng, n)
		list2 := randList(rng, rng.Intn(4))

		var goals []program.Atom
		switch trial % 6 {
		case 0: // forward append
			goals = append(goals, program.NewAtom("append", list, list2, term.NewVar("W")))
		case 1: // all splits of a list
			goals = append(goals, program.NewAtom("append", term.NewVar("U"), term.NewVar("V"), list))
		case 2: // sort
			goals = append(goals, program.NewAtom("isort", list, term.NewVar("Ys")))
		case 3: // reverse
			goals = append(goals, program.NewAtom("reverse", list, term.NewVar("Ys")))
		case 4: // mutual parity check (ground)
			goals = append(goals, program.NewAtom("evenlen", list))
		case 5: // a doubled list split into equal halves (repeated variable)
			goals = append(goals, program.NewAtom("append", term.NewVar("U"), term.NewVar("U"), concat(list, list)))
		}

		var results []string
		for _, strat := range []Strategy{StrategyTopDown, StrategyBuffered} {
			db := load(t, funcProgs)
			res, err := db.Query(goals, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("trial %d %v on %s: %v", trial, strat, goals[0], err)
			}
			results = append(results, canonicalAnswers(res.Answers))
		}
		if results[0] != results[1] {
			t.Fatalf("trial %d: buffered disagrees with topdown on %s\n%q\nvs\n%q",
				trial, goals[0], results[1], results[0])
		}
		// Semantic spot checks.
		switch trial % 6 {
		case 1:
			wantSplits := fmt.Sprint(n + 1)
			gotSplits := fmt.Sprint(strings.Count(results[0], ";") + 1)
			if results[0] == "" {
				gotSplits = "0"
			}
			if n >= 0 && gotSplits != wantSplits {
				t.Fatalf("trial %d: %s splits of a %d-list, want %s", trial, gotSplits, n, wantSplits)
			}
		case 5:
			if want := canonicalAnswers([][]term.Term{{list, list, concat(list, list)}}); results[0] != want {
				t.Fatalf("trial %d: %s gave %q, want the one answer %q", trial, goals[0], results[0], want)
			}
		}
	}
}
