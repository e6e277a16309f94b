package experiments

import (
	"fmt"
	"math"
	"sort"

	"chainsplit/internal/core"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "T7",
		Title:    "isort: nested linear recursion via chain-split (buffered + inner insert)",
		PaperRef: "§4.1 (Example 4.1, nested linear recursions)",
		Claim:    "isort (nested linear) evaluates by chain-split: buffer one X per level, delayed insert after the recursion (Example 4.1)",
		Run:      runT7,
	})
	register(Experiment{
		ID:       "T8",
		Title:    "qsort: nonlinear recursion via chain-split subgoal scheduling",
		PaperRef: "§4.2 (Example 4.2, nonlinear recursions)",
		Claim:    "qsort (nonlinear) evaluates by chain-split subgoal scheduling: partition first, recursive calls, delayed append (Example 4.2)",
		Run:      runT8,
	})
}

// qsortStepsPerNLogN bounds T8's top-down steps per n·log₂n. The
// measured constant is ≈11 on these inputs; a quadratic qsort (≈3.5·n²
// steps from the same start) would cross 16·n·log₂n by n = 40.
const qsortStepsPerNLogN = 16

// sortGoal builds pred(vals, Ys) and the sorted list it must answer.
func sortGoal(pred string, vals []int64) ([]program.Atom, term.Term) {
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return []program.Atom{program.NewAtom(pred, term.IntList(vals...), term.NewVar("Ys"))}, term.IntList(sorted...)
}

// sorts reports whether res holds exactly the one answer want.
func sorts(res *core.Result, want term.Term) bool {
	return len(res.Answers) == 1 && term.Equal(res.Answers[0][1], want)
}

func runT7(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "n", "method", "correct", "contexts", "edges", "steps")
	sizes := []int{10, 20, 40, 80}
	var steps []int
	for _, n := range sizes {
		goal, want := sortGoal("isort", workload.RandomInts(n, 1000, int64(n)*7))
		db, err := buildDB(workload.SortRules())
		if err != nil {
			return nil, err
		}
		for _, s := range []core.Strategy{core.StrategyBuffered, core.StrategyTopDown} {
			res, err := queryDB(cfg, db, goal, core.Options{Strategy: s})
			if err != nil {
				return nil, err
			}
			m := res.Metrics
			t.add(n, s, sorts(res, want), m.Contexts, m.Edges, m.Steps)
			r.check(sorts(res, want), "n=%d: %s did not sort the list", n, s)
			if s == core.StrategyBuffered {
				r.check(m.Contexts == n+1 && m.Edges == n, "n=%d: buffered evaluation holds %d contexts and %d edges, not n+1 and n", n, m.Contexts, m.Edges)
			} else {
				steps = append(steps, m.Steps)
			}
		}
	}
	r.Measured = fmt.Sprintf("buffered edges = n and contexts = n+1 at n = %s; both engines sort correctly (top-down steps %s)",
		series(sizes...), series(steps...))
	return r, nil
}

func runT8(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "n", "correct", "steps", "calls", "table-hits", "steps/(n·log₂n)")
	sizes := []int{10, 20, 40, 80}
	var steps []int
	lo, hi := math.Inf(1), 0.0
	for _, n := range sizes {
		goal, want := sortGoal("qsort", workload.RandomInts(n, 1000, int64(n)*13))
		db, err := buildDB(workload.SortRules())
		if err != nil {
			return nil, err
		}
		res, err := queryDB(cfg, db, goal, core.Options{})
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		c := float64(m.Steps) / (float64(n) * math.Log2(float64(n)))
		t.add(n, sorts(res, want), m.Steps, m.Calls, m.TableHits, fmt.Sprintf("%.1f", c))
		r.check(sorts(res, want), "n=%d: qsort did not sort the list", n)
		r.check(c <= qsortStepsPerNLogN, "n=%d: %d steps = %.1f·n·log₂n, above %d·n·log₂n", n, m.Steps, c, qsortStepsPerNLogN)
		steps = append(steps, m.Steps)
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	r.Measured = fmt.Sprintf("sorts correctly at n = %s; steps %s = %.1f–%.1f × n·log₂n (bound %d)",
		series(sizes...), series(steps...), lo, hi, qsortStepsPerNLogN)
	return r, nil
}
