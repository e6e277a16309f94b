package chainsplit

// Determinism suite: a query evaluates on one goroutine, so the only
// concurrency it meets is other queries on the same database. For
// every strategy and workload, copies of a query run concurrently must
// produce the byte-identical sorted answers, evaluation metrics and
// errors of the same query run alone; mid-round cancellation, fault
// injection and panics must surface as core's typed errors. Run under
// -race this also exercises the state concurrent queries share.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"chainsplit/internal/core"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// detWorkers is how many copies of a query run concurrently against
// the serial run.
const detWorkers = 3

type detCase struct {
	name  string
	rules string
	facts *program.Program
	goals []program.Atom
}

func detCases(t *testing.T) []detCase {
	t.Helper()
	q := func(s string) []program.Atom {
		parsed, err := lang.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		return parsed.Goals
	}
	return []detCase{
		{
			name:  "sg",
			rules: workload.SGRules(),
			facts: workload.Family(workload.FamilyConfig{Generations: 5, Fanout: 2, Roots: 1, Countries: 1, Seed: 1}),
			goals: q(fmt.Sprintf("?- sg(%s, Y).", workload.PersonName(5, 0))),
		},
		{
			name:  "scsg",
			rules: workload.SCSGRules(),
			facts: workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 2, Seed: 11}),
			goals: q(fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0))),
		},
		{
			name:  "append",
			rules: workload.AppendRules(),
			goals: []program.Atom{program.NewAtom("append",
				term.IntList(workload.RandomInts(40, 1000, 4)...), term.IntList(-1), term.NewVar("W"))},
		},
		{
			name:  "travel",
			rules: workload.TravelRules(),
			facts: workload.Flights(workload.FlightsConfig{Cities: 4, OutDegree: 2, Layered: true, Layers: 4, Seed: 5}),
			goals: q(fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", workload.CityName(0, 0))),
		},
		{
			name:  "isort",
			rules: workload.SortRules(),
			goals: []program.Atom{program.NewAtom("isort",
				term.IntList(workload.RandomInts(15, 1000, 7)...), term.NewVar("Ys"))},
		},
		{
			name:  "qsort",
			rules: workload.SortRules(),
			goals: []program.Atom{program.NewAtom("qsort",
				term.IntList(workload.RandomInts(15, 1000, 13)...), term.NewVar("Ys"))},
		},
	}
}

func detDB(t *testing.T, c detCase) *core.DB {
	t.Helper()
	res, err := lang.Parse(c.rules)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB()
	db.Load(res.Program)
	if c.facts != nil {
		db.Load(c.facts)
	}
	return db
}

// renderSorted renders the answer tuples and sorts them, giving the
// byte-comparable canonical form of a result set.
func renderSorted(res *core.Result) string {
	rows := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		parts := make([]string, len(a))
		for j, v := range a {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "\t")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

var detStrategies = []core.Strategy{
	core.StrategyMagic, core.StrategyMagicFollow, core.StrategyMagicSplit,
	core.StrategyBuffered, core.StrategyTopDown, core.StrategySeminaive,
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	type outcome struct {
		answers string
		tuples  int
		rounds  int
		matches int64
		err     string
	}
	for _, c := range detCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db := detDB(t, c)
			for _, strat := range detStrategies {
				strat := strat
				t.Run(strat.String(), func(t *testing.T) {
					run := func() outcome {
						res, err := db.Query(c.goals, core.Options{
							Strategy:  strat,
							MaxTuples: 200_000, MaxIterations: 10_000,
						})
						if err != nil {
							return outcome{err: err.Error()}
						}
						return outcome{
							answers: renderSorted(res),
							tuples:  res.Metrics.DerivedTuples,
							rounds:  res.Metrics.Iterations,
							matches: res.Metrics.Matches,
						}
					}
					serial := run()
					got := make([]outcome, detWorkers)
					var wg sync.WaitGroup
					for w := range got {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							got[w] = run()
						}(w)
					}
					wg.Wait()
					for w, o := range got {
						if o != serial {
							t.Fatalf("concurrent run %d diverges from serial:\n got %+v\nwant %+v", w, o, serial)
						}
					}
				})
			}
		})
	}
}

// TestDeterminismUnderCancellation cancels mid-evaluation (from the
// fixpoint-round fault-injection site) and requires ErrCanceled.
func TestDeterminismUnderCancellation(t *testing.T) {
	defer faultinject.Reset()
	c := detCases(t)[0] // sg
	db := detDB(t, c)
	for _, strat := range []core.Strategy{core.StrategyMagic, core.StrategySeminaive} {
		ctx, cancel := context.WithCancel(context.Background())
		fires := 0
		restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
			fires++
			if fires == 2 {
				cancel() // mid-evaluation: at least one round already ran
			}
			return nil
		})
		_, err := db.Query(c.goals, core.Options{Strategy: strat, Ctx: ctx})
		restore()
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", strat, err)
		}
	}
}

// TestDeterminismUnderFaultInjection injects a mid-evaluation engine
// fault and requires it to surface as a typed engine error.
func TestDeterminismUnderFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	c := detCases(t)[0] // sg
	db := detDB(t, c)
	fires := 0
	restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
		fires++
		if fires == 2 {
			return errors.New("determinism: injected fault")
		}
		return nil
	})
	_, err := db.Query(c.goals, core.Options{Strategy: core.StrategyMagic})
	restore()
	var ee *EvalError
	if !errors.As(err, &ee) || !strings.Contains(err.Error(), "determinism: injected fault") {
		t.Fatalf("err = %v, want an *EvalError carrying the injected fault", err)
	}
}

// TestDeterminismPanicContained injects a panic at the round boundary:
// it must surface as a contained ErrPanic through the query path, never
// a process crash.
func TestDeterminismPanicContained(t *testing.T) {
	defer faultinject.Reset()
	c := detCases(t)[0] // sg
	db := detDB(t, c)
	fires := 0
	restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
		fires++
		if fires == 2 {
			panic("determinism: injected panic")
		}
		return nil
	})
	_, err := db.Query(c.goals, core.Options{Strategy: core.StrategyMagic})
	restore()
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
}
