package counting

import (
	"testing"

	"chainsplit/internal/lang"
)

const isortSrc = `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
`

// TestBufferedCountsPinned pins every effort count of buffered
// evaluation (all of Stats but the traced Profile and Events) on the
// paper's list programs, travel with and without a pushed fare bound,
// a mutually recursive SCC and a shared subchain. The counts are the
// observable shape of Algorithm 3.2 — contexts opened, buffers kept,
// delayed portions replayed — so a change to how a portion's literals
// are solved must leave every one of them as it is.
func TestBufferedCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name, src, key, query string
		opts                  Options
		answers               int
		want                  Stats
	}{
		{"append", appendSrc, "append/3", "?- append([1,2,3,4,5,6,7,8], [9], W).", Options{}, 1,
			Stats{Levels: 8, Contexts: 9, Edges: 8, Answers: 9, UpJoins: 8, ExitFires: 1}},
		{"isort", isortSrc, "isort/2", "?- isort([5,7,1,9,3,8], Ys).", Options{}, 1,
			Stats{Levels: 6, Contexts: 7, Edges: 6, Answers: 7, UpJoins: 6, ExitFires: 1}},
		{"insert", isortSrc, "insert/3", "?- insert(6, [1,3,5,7,9], Ys).", Options{}, 1,
			Stats{Levels: 3, Contexts: 4, Edges: 3, Answers: 4, UpJoins: 3, ExitFires: 1}},
		{"travel", travelSrc, "travel/6", "?- travel(L, yvr, DT, A, AT, F).", Options{}, 3,
			Stats{Levels: 1, Contexts: 3, Edges: 4, Answers: 5, UpJoins: 2, ExitFires: 4}},
		{"travel-acc", cyclicTravelSrc, "travel/6", "?- travel(L, a, DT, A, AT, F).", Options{
			MaxLevels: 1000,
			Acc:       &AccumSpec{IncrementVar: map[int]string{0: findFareVar(t, cyclicTravelSrc)}, Bound: 200},
		}, 6, Stats{Levels: 3, Contexts: 7, Edges: 5, Answers: 14, Pruned: 1, UpJoins: 8, ExitFires: 6}},
		{"mutual", alternateSrc, "reachA/2", "?- reachA(n0, Y).", Options{}, 4,
			Stats{Levels: 3, Contexts: 4, Edges: 4, Answers: 16, UpJoins: 16, ExitFires: 4}},
		{"shared", `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(r, a). e(r, b). e(a, x). e(b, x). e(x, y).
`, "tc/2", "?- tc(r, Y).", Options{}, 4,
			Stats{Levels: 3, Contexts: 5, Edges: 5, Answers: 9, UpJoins: 6, ExitFires: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, _ := setup(t, tc.src, tc.key, tc.opts)
			q, err := lang.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := ev.Query(q.Goals[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(ans) != tc.answers {
				t.Errorf("%d answers, want %d: %v", len(ans), tc.answers, ans)
			}
			got := *ev.Stats()
			got.Profile, got.Events = nil, nil
			if got.Levels != tc.want.Levels || got.Contexts != tc.want.Contexts || got.Edges != tc.want.Edges ||
				got.Answers != tc.want.Answers || got.Pruned != tc.want.Pruned || got.UpJoins != tc.want.UpJoins ||
				got.ExitFires != tc.want.ExitFires {
				t.Errorf("stats = %+v\nwant    %+v", got, tc.want)
			}
		})
	}
}
