package core

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/term"
)

// TestAppendLinear gates the paper's claim (§1.2, §4) that chain-split
// evaluation makes append linear: n+1 contexts and n buffered edges,
// and bytes allocated per list element flat in n. It gates on bytes
// rather than wall time, which is too noisy to tell 1.0 from 1.4 as an
// exponent. Not parallel: TotalAlloc is process-wide.
func TestAppendLinear(t *testing.T) {
	db := load(t, `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`)
	perElem := make(map[int]float64)
	sizes := []int{128, 512, 2048}
	for _, n := range sizes {
		elems := make([]string, n)
		want := make([]int64, n+1)
		for i := range elems {
			elems[i] = strconv.Itoa(i)
			want[i] = int64(i)
		}
		want[n] = -1
		q := "?- append([" + strings.Join(elems, ",") + "], [-1], W)."
		best := uint64(1<<64 - 1)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			goals, err := lang.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(goals.Goals, Options{})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
			if len(res.Answers) != 1 || !term.Equal(res.Answers[0][2], term.IntList(want...)) {
				t.Fatalf("n=%d: wrong answers %v", n, res.Answers)
			}
			if res.Metrics.Contexts != n+1 || res.Metrics.Edges != n {
				t.Fatalf("n=%d: %d contexts and %d edges, want %d and %d",
					n, res.Metrics.Contexts, res.Metrics.Edges, n+1, n)
			}
		}
		perElem[n] = float64(best) / float64(n)
	}
	lo, hi := perElem[sizes[0]], perElem[sizes[len(sizes)-1]]
	t.Logf("bytes allocated per element: %v", perElem)
	if hi >= 1.5*lo {
		t.Errorf("bytes per element rose %.1fx from n=%d (%.0f B) to n=%d (%.0f B); append is not linear",
			hi/lo, sizes[0], lo, sizes[len(sizes)-1], hi)
	}
}
