package seminaive

import (
	"fmt"
	"strings"
	"testing"

	"chainsplit/internal/obsv"
)

// TestRoundProfilePinned pins the number of rounds, every round's delta
// sizes and the matches on two recursions where a round that read past
// its own start (fewer rounds), or a delta that reached back before the
// previous round (more matches), would show: nonlinear transitive closure, whose two same-SCC literals both
// read the relation being appended to, and a two-predicate mutual
// recursion, whose rules read each other's relation.
func TestRoundProfilePinned(t *testing.T) {
	var chain strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&chain, "e(n%d, n%d).\n", i, i+1)
	}
	var succ strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&succ, "s(n%d, n%d).\n", i+1, i)
	}
	cases := []struct {
		name, src  string
		iterations int
		deltas     string
		matches    int64
	}{
		{"nonlinear-tc", chain.String() + `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
`, 7, "map[tc:64] map[tc:63] map[tc:123] map[tc:234] map[tc:420] map[tc:648] map[tc:528] map[tc:0]", 59129},
		{"mutual", succ.String() + `
even(n0).
even(X) :- s(X, Y), odd(Y).
odd(X) :- s(X, Y), even(Y).
`, 13, "map[even:0 odd:0]" + strings.Repeat(" map[even:0 odd:1] map[even:1 odd:0]", 6) + " map[even:0 odd:0]", 168},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			_, stats, err := run(t, c.src, Options{Workers: workers, Tracer: obsv.NewTracer(0)})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			var deltas []string
			for _, d := range stats.Deltas {
				deltas = append(deltas, fmt.Sprint(d.DeltaSizes))
			}
			got := strings.Join(deltas, " ")
			if stats.Iterations != c.iterations || got != c.deltas || stats.Matches != c.matches {
				t.Errorf("%s workers=%d: %d rounds, deltas %s, %d matches; want %d rounds, deltas %s, %d matches",
					c.name, workers, stats.Iterations, got, stats.Matches, c.iterations, c.deltas, c.matches)
			}
		}
	}
}
