package experiments

import (
	"errors"
	"fmt"

	"chainsplit/internal/core"
	"chainsplit/internal/everr"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "T5",
		Title:    "travel: buffered chain-split evaluation scales with route depth",
		PaperRef: "§3.2 (Algorithm 3.2, buffered evaluation)",
		Claim: "buffered chain-split evaluation (Alg 3.2) evaluates travel; buffers grow with chain depth, " +
			"contexts shared across routes",
		Run: runT5,
	})
	register(Experiment{
		ID:       "T6",
		Title:    "travel with fare bound: constraint pushing prunes the iteration",
		PaperRef: "§3.3 (Algorithm 3.3, chain-split partial evaluation)",
		Claim: "termination constraints pushed into the chain (Alg 3.3) prune hopeless intermediate tuples " +
			"and make cyclic evaluation finite",
		Run: runT6,
	})
	register(Experiment{
		ID:       "F3",
		Title:    "buffered evaluation level profile (contexts/edges/answers per level)",
		PaperRef: "Remark 3.1 (buffer population during down/up phases)",
		Claim:    "Algorithm 3.2's buffers fill level-by-level downward; answers fill from the deepest exits upward",
		Run:      runF3,
	})
}

// travelQuery is the itinerary query from city start, with a fare bound
// when bound > 0.
func travelQuery(start string, bound int) string {
	if bound == 0 {
		return fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", start)
	}
	return fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< %d.", start, bound)
}

func runT5(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "layers", "flights", "method", "itineraries", "contexts", "edges", "steps")
	strats := []core.Strategy{core.StrategyBuffered, core.StrategyTopDown}
	var layers, itineraries, contexts []int
	for l := 2; l <= 6; l++ {
		fl := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 3, Layered: true, Layers: l, Seed: 5})
		res, err := runEach(cfg, workload.TravelRules(), fl, travelQuery(workload.CityName(0, 0), 0), core.Options{}, strats...)
		if err != nil {
			return nil, err
		}
		for i, s := range strats {
			m := res[i].Metrics
			t.add(l, len(fl.Facts), s, len(res[i].Answers), m.Contexts, m.Edges, m.Steps)
		}
		r.check(sameAnswers(res[0], res[1]), "layers %d: buffered and top-down itineraries differ", l)
		layers = append(layers, l)
		itineraries = append(itineraries, len(res[0].Answers))
		contexts = append(contexts, res[0].Metrics.Contexts)
	}
	for i := 2; i < len(contexts); i++ {
		r.check(contexts[i]-contexts[i-1] == contexts[1]-contexts[0],
			"layers %d: contexts %s do not grow linearly with layers", layers[i], series(contexts...))
	}
	for i := 1; i < len(contexts); i++ {
		r.check(itineraries[i]*contexts[i-1] > itineraries[i-1]*contexts[i],
			"layers %d: itineraries (%d) grew no faster than contexts (%d)", layers[i], itineraries[i], contexts[i])
	}
	r.Measured = fmt.Sprintf("contexts grow linearly with layers %s (%s) while itineraries grow combinatorially (%s); buffered and top-down agree at every size",
		series(layers...), series(contexts...), series(itineraries...))
	return r, nil
}

func runT6(cfg Config) (*Report, error) {
	r := &Report{}
	fl := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 2, MaxFare: 100, Seed: 9})
	start := workload.CityName(-1, 0)

	// Without the constraint the cyclic network diverges. Keep the
	// budget small: on a cyclic graph the up phase grows routes one
	// flight per propagation, so work is quadratic in the answer budget
	// — 1500 answers suffices to demonstrate divergence.
	_, uerr := run(cfg, workload.TravelRules(), fl, travelQuery(start, 0), core.Options{MaxLevels: 50, MaxAnswers: 1500})
	outcome := "budget exceeded (diverges, as the paper predicts)"
	if !errors.Is(uerr, everr.ErrBudget) {
		outcome = fmt.Sprintf("terminated (%v)", uerr)
	}
	r.table("unconstrained query on cyclic flights: " + outcome)
	r.check(errors.Is(uerr, everr.ErrBudget), "the unconstrained query did not exhaust its budget: %v", uerr)

	t := r.table("", "fare-bound", "pushed", "itineraries", "contexts", "pruned")
	bounds := []int{50, 100, 200, 400}
	var itineraries, contexts []int
	for i, b := range bounds {
		res, err := run(cfg, workload.TravelRules(), fl, travelQuery(start, b), core.Options{MaxLevels: 100000})
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		pushed := len(res.Plan.Pushed) > 0
		t.add(b, pushed, len(res.Answers), m.Contexts, m.Pruned)
		r.check(pushed && m.Pruned > 0, "bound %d: the constraint was not pushed or pruned nothing", b)
		r.check(i == 0 || m.Contexts > contexts[i-1] && len(res.Answers) >= itineraries[i-1],
			"bound %d: a looser bound explored no more contexts or found fewer itineraries", b)
		itineraries, contexts = append(itineraries, len(res.Answers)), append(contexts, m.Contexts)
	}
	r.Measured = fmt.Sprintf("unconstrained cyclic query trips the budget (diverges); with the fare bound pushed, evaluation terminates at bounds %s with contexts %s and itineraries %s",
		series(bounds...), series(contexts...), series(itineraries...))
	return r, nil
}

func runF3(cfg Config) (*Report, error) {
	fl := workload.Flights(workload.FlightsConfig{Cities: 5, OutDegree: 2, Layered: true, Layers: 6, Seed: 13})
	res, err := run(cfg, workload.TravelRules(), fl, travelQuery(workload.CityName(0, 0), 0),
		core.Options{Strategy: core.StrategyBuffered, Trace: true})
	if err != nil {
		return nil, err
	}
	r := &Report{}
	t := r.table("", "level", "contexts", "buffered-edges", "answers")
	prof := res.Metrics.Profile
	var edges, answers []int
	for i, ls := range prof {
		t.add(ls.Level, ls.Contexts, ls.Edges, ls.Answers)
		r.check(ls.Contexts > 0, "level %d opened no context", ls.Level)
		r.check(i == 0 || ls.Answers <= prof[i-1].Answers, "level %d holds more answers (%d) than the level above", ls.Level, ls.Answers)
		edges, answers = append(edges, ls.Edges), append(answers, ls.Answers)
	}
	r.check(len(prof) > 1 && prof[len(prof)-1].Edges == 0, "the deepest level still buffers edges")
	r.Measured = fmt.Sprintf("buffered edges per level %s going down, none at the deepest level (its contexts exit); answers per level %s, falling from level 0 to the deepest",
		series(edges...), series(answers...))
	return r, nil
}
