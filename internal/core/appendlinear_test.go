package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// The shape gates below hold the paper's complexity claims for the list
// programs. They gate on bytes allocated per unit of work rather than
// wall time, which is too noisy to tell an exponent of 1.0 from 1.4
// over these sizes. Not parallel: TotalAlloc is process-wide.

// allocSeries runs query(n) at each size (the best of runs runs) and
// returns the bytes allocated per unit(n), checking each result.
func allocSeries(t *testing.T, db *DB, strat Strategy, runs int, sizes []int, query func(n int) string,
	unit func(n int) float64, check func(n int, res *Result)) []float64 {
	t.Helper()
	series := make([]float64, len(sizes))
	for i, n := range sizes {
		best := uint64(math.MaxUint64)
		for run := 0; run < runs; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			goals, err := lang.ParseQuery(query(n))
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(goals.Goals, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%v n=%d: %v", strat, n, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
			check(n, res)
		}
		series[i] = float64(best) / unit(n)
	}
	return series
}

// seriesString renders a size series as "n=128: 4321 B, n=512: …".
func seriesString(sizes []int, series []float64) string {
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = fmt.Sprintf("n=%d: %.0f B", n, series[i])
	}
	return strings.Join(parts, ", ")
}

// gateSeries logs series and fails when its last entry reaches maxRise
// times its first.
func gateSeries(t *testing.T, what string, sizes []int, series []float64, maxRise float64) {
	t.Helper()
	t.Logf("%s: %s", what, seriesString(sizes, series))
	if rise := series[len(series)-1] / series[0]; rise >= maxRise {
		t.Errorf("%s rose %.2fx from n=%d to n=%d (limit %.2fx): %s",
			what, rise, sizes[0], sizes[len(sizes)-1], maxRise, seriesString(sizes, series))
	}
}

// TestAppendLinear gates the paper's claim (§1.2, §4) that chain-split
// evaluation makes append linear: bytes allocated per list element stay
// flat in n, both buffered (with n+1 contexts and n edges) and
// top-down.
func TestAppendLinear(t *testing.T) {
	db := load(t, workload.AppendRules())
	sizes := []int{128, 512, 2048}
	want := func(n int) term.Term {
		vs := make([]int64, n+1)
		for i := range vs {
			vs[i] = int64(i)
		}
		vs[n] = -1
		return term.IntList(vs...)
	}
	query := func(n int) string {
		elems := make([]string, n)
		for i := range elems {
			elems[i] = strconv.Itoa(i)
		}
		return "?- append([" + strings.Join(elems, ",") + "], [-1], W)."
	}
	perElem := func(n int) float64 { return float64(n) }
	for _, strat := range []Strategy{StrategyAuto, StrategyTopDown} {
		series := allocSeries(t, db, strat, 3, sizes, query, perElem, func(n int, res *Result) {
			if len(res.Answers) != 1 || !term.Equal(res.Answers[0][2], want(n)) {
				t.Fatalf("%v n=%d: wrong answers %v", strat, n, res.Answers)
			}
			if strat == StrategyAuto && (res.Metrics.Contexts != n+1 || res.Metrics.Edges != n) {
				t.Fatalf("n=%d: %d contexts and %d edges, want %d and %d",
					n, res.Metrics.Contexts, res.Metrics.Edges, n+1, n)
			}
		})
		gateSeries(t, fmt.Sprintf("%v append bytes per element", strat), sizes, series, 1.5)
	}
}

// TestTopDownQsortNLogN gates the paper's qsort (§4, Example 4.2) under
// top-down chain-split scheduling to n·log₂n: bytes allocated per
// n·log₂n must not rise from n = 64 to 1,024 on a random list. One run
// per size keeps the gate under a second; the evaluation is
// deterministic, so its allocation barely varies between runs.
func TestTopDownQsortNLogN(t *testing.T) {
	db := load(t, workload.SortRules())
	sizes := []int{64, 256, 1024}
	vals := func(n int) []int64 { return workload.RandomInts(n, 1<<20, int64(n)) }
	query := func(n int) string {
		elems := make([]string, n)
		for i, v := range vals(n) {
			elems[i] = strconv.FormatInt(v, 10)
		}
		return "?- qsort([" + strings.Join(elems, ",") + "], Ys)."
	}
	nLogN := func(n int) float64 { return float64(n) * math.Log2(float64(n)) }
	series := allocSeries(t, db, StrategyTopDown, 1, sizes, query, nLogN, func(n int, res *Result) {
		sorted := vals(n)
		slices.Sort(sorted)
		if len(res.Answers) != 1 || !term.Equal(res.Answers[0][1], term.IntList(sorted...)) {
			t.Fatalf("n=%d: wrong answers %v", n, res.Answers)
		}
	})
	gateSeries(t, "topdown qsort bytes per n·log₂n", sizes, series, 1.25)
}
