package experiments

import (
	"fmt"

	"chainsplit/internal/core"
	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "A1",
		Title:    "ablation: supplementary-predicate factoring of magic prefixes",
		PaperRef: "design choice noted in DESIGN.md (standard supplementary magic)",
		Run:      runA1,
	})
	register(Experiment{
		ID:       "A2",
		Title:    "ablation: accumulator-keyed contexts for constraint pushing",
		PaperRef: "Algorithm 3.3 implementation choice (context identity under pruning)",
		Run:      runA2,
	})
	register(Experiment{
		ID:       "A3",
		Title:    "extension: SCC-wide buffered evaluation of mutual linear recursions",
		PaperRef: "generalization of Algorithm 3.2 beyond single-predicate chains",
		Run:      runA3,
	})
}

// runA1 measures the supplementary rewrite on a nonlinear recursion
// (two IDB body literals, so the prefix is shared three ways).
func runA1(cfg Config) error {
	e, _ := Lookup("A1")
	header(cfg.Out, e)
	sizes := []int{16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	t := newTable(cfg.Out, "chain-length", "variant", "answers", "derived", "matches", "time")
	for _, n := range sizes {
		src := "nl(X, Y) :- e(X, Y).\nnl(X, Y) :- nl(X, Z), nl(Z, Y).\n"
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
		}
		for _, sup := range []bool{false, true} {
			res, err := lang.Parse(src)
			if err != nil {
				return err
			}
			p := program.Rectify(res.Program)
			goalQ, err := lang.ParseQuery("?- nl(n0, Y).")
			if err != nil {
				return err
			}
			cat := relation.NewCatalog()
			for _, f := range p.Facts {
				cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
			}
			rw, err := magic.Rewrite(p, goalQ.Goals[0], magic.Config{Policy: magic.PolicyFollow, Model: &cost.Model{Cat: cat}, Supplementary: sup})
			if err != nil {
				return err
			}
			start := nowMS()
			stats, err := seminaive.Eval(rw.Program, cat, seminaive.Options{})
			if err != nil {
				return err
			}
			elapsed := nowMS() - start
			ans := magic.Answers(cat, rw, goalQ.Goals[0])
			variant := "flat"
			if sup {
				variant = "supplementary"
			}
			t.row(n, variant, ans.Len(), stats.DerivedTuples, stats.Matches, fmt.Sprintf("%.3fms", elapsed))
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "\nexpected shape: identical answers; the supplementary variant does no\n"+
		"more join work (matches) than the flat rewrite — shared prefixes are\n"+
		"evaluated once — at the price of materializing the sup$ relations\n"+
		"(higher derived-tuple counts).")
	return nil
}

// runA3 compares the SCC-wide buffered evaluator with the top-down
// engine and full semi-naive on mutual linear recursion.
func runA3(cfg Config) error {
	e, _ := Lookup("A3")
	header(cfg.Out, e)
	layers := []int{4, 8, 12}
	width, outdeg := 4, 2
	if cfg.Quick {
		layers = []int{3, 5}
		width = 3
	}
	t := newTable(cfg.Out, "layers", "method", "answers", "contexts", "steps", "derived", "time")
	for _, l := range layers {
		alt := workload.Alternating(workload.AlternatingConfig{Layers: l, Width: width, OutDegree: outdeg, Seed: 17})
		goal := fmt.Sprintf("?- reachA(%s, Y).", workload.NodeName(0, 0))
		for _, strat := range []core.Strategy{core.StrategyBuffered, core.StrategyTopDown, core.StrategySeminaive} {
			db, err := buildDB(workload.AlternatingRules(), alt)
			if err != nil {
				return err
			}
			res, err := run(cfg, db, goal, core.Options{Strategy: strat})
			if err != nil {
				return err
			}
			t.row(l, strat, len(res.Answers), res.Metrics.Contexts, res.Metrics.Steps,
				res.Metrics.DerivedTuples, ms(res.Metrics.Duration))
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "\nexpected shape: the buffered context graph spans both SCC predicates\n"+
		"(contexts ≈ reachable nodes per predicate) and all three methods agree\n"+
		"on the answer count, with the goal-directed ones beating semi-naive.")
	return nil
}

// runA2 measures the effect of including the accumulator in context
// identity: without it, pruning would be unsound, so the comparison is
// pruned-vs-unpruned on the same acyclic instance (where both are
// complete and must agree).
func runA2(cfg Config) error {
	e, _ := Lookup("A2")
	header(cfg.Out, e)
	layers := 6
	if cfg.Quick {
		layers = 3
	}
	fl := workload.Flights(workload.FlightsConfig{Cities: 5, OutDegree: 3, Layered: true, Layers: layers, MaxFare: 100, Seed: 21})
	start := workload.CityName(0, 0)
	t := newTable(cfg.Out, "fare-bound", "variant", "itineraries", "contexts", "pruned", "time")
	for _, bound := range []int{100, 200, 100000} {
		for _, push := range []bool{true, false} {
			db, err := buildDB(workload.TravelRules(), fl)
			if err != nil {
				return err
			}
			q := fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< %d.", start, bound)
			opts := coreOptions()
			if !push {
				// Disable pushing by querying without the constraint
				// and filtering by hand afterwards is what the planner
				// does for non-pushable constraints; emulate via a
				// fresh query with no bound and count survivors.
				q = fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", start)
			}
			res, err := run(cfg, db, q, opts)
			if err != nil {
				return err
			}
			count := 0
			for _, a := range res.Answers {
				if fare, ok := fareOf(a); ok && fare <= int64(bound) {
					count++
				}
			}
			variant := "pushed"
			if !push {
				variant = "evaluate-then-filter"
			}
			t.row(bound, variant, count, res.Metrics.Contexts, res.Metrics.Pruned, ms(res.Metrics.Duration))
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "\nexpected shape: identical itinerary counts per bound (pruning is\n"+
		"sound thanks to accumulator-keyed contexts). The ablation exposes the\n"+
		"cost of that soundness: keying contexts by accumulated fare splits\n"+
		"shared route suffixes, so on an ACYCLIC graph pushing can explore\n"+
		"more contexts than evaluate-then-filter. Pushing pays off where the\n"+
		"paper needs it: cyclic networks (where evaluate-then-filter diverges,\n"+
		"see T6) and tight bounds that cut whole subtrees.")
	return nil
}
