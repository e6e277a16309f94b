package counting

import (
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/obsv"
)

// TestIsortGoldenTrace pins the evaluation of the paper's Example 4.1
// query, isort([5,7,1], Ys), to the narrative the paper gives:
//
//	down:  [5,7,1] → [7,1] → [1] → []         (X=5, 7, 1 buffered)
//	exit:  isort([], [])
//	up:    insert(1, [])    → isort([1],   [1])
//	       insert(7, [1])   → isort([7,1], [1,7])
//	       insert(5, [1,7]) → isort([5,7,1], [1,5,7])
func TestIsortGoldenTrace(t *testing.T) {
	ev, _ := setup(t, `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
`, "isort/2", Options{Tracer: obsv.NewTracer(0)})
	q, _ := lang.ParseQuery("?- isort([5,7,1], Ys).")
	if _, err := ev.Query(q.Goals[0]); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"down L0 isort/2^bf ([5, 7, 1])",
		"down L1 isort/2^bf ([7, 1])",
		"down L2 isort/2^bf ([1])",
		"down L3 isort/2^bf ([])",
		"answer L3 isort/2 ([], [])",
		"answer L2 isort/2 ([1], [1])",
		"answer L1 isort/2 ([7, 1], [1, 7])",
		"answer L0 isort/2 ([5, 7, 1], [1, 5, 7])",
	}
	got := ev.Stats().Events
	if len(got) != len(want) {
		t.Fatalf("trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendGoldenTrace pins the §1.2 append chain-split evaluation.
func TestAppendGoldenTrace(t *testing.T) {
	ev, _ := setup(t, appendSrc, "append/3", Options{Tracer: obsv.NewTracer(0)})
	q, _ := lang.ParseQuery("?- append([1,2], [3], W).")
	if _, err := ev.Query(q.Goals[0]); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"down L0 append/3^bbf ([1, 2], [3])",
		"down L1 append/3^bbf ([2], [3])",
		"down L2 append/3^bbf ([], [3])",
		"answer L2 append/3 ([], [3], [3])",
		"answer L1 append/3 ([2], [3], [2, 3])",
		"answer L0 append/3 ([1, 2], [3], [1, 2, 3])",
	}
	got := ev.Stats().Events
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestNoEventsWithoutTrace(t *testing.T) {
	ev, _ := setup(t, appendSrc, "append/3", Options{})
	q, _ := lang.ParseQuery("?- append([1], [2], W).")
	if _, err := ev.Query(q.Goals[0]); err != nil {
		t.Fatal(err)
	}
	if len(ev.Stats().Events) != 0 {
		t.Errorf("events recorded without a Tracer: %v", ev.Stats().Events)
	}
}
