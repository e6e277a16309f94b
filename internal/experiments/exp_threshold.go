package experiments

import (
	"fmt"
	"strings"

	"chainsplit/internal/core"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "T3",
		Title:    "threshold decision quality across the join expansion ratio sweep",
		PaperRef: "Algorithm 3.1, §2.1 (chain-split vs chain-following thresholds)",
		Claim: "the threshold rule (split above θ, follow below θ, quantitative between) picks the cheaper plan; " +
			"crossover at expansion ratio ≈ 1",
		Run: runT3,
	})
	register(Experiment{
		ID:       "F2",
		Title:    "split-over-follow improvement vs join expansion ratio (crossover)",
		PaperRef: "§2.1 heuristic: split when the connection expands the binding set",
		Claim:    "improvement of split over follow grows with the join expansion ratio; plans coincide at ratio 1",
		Run:      runF2,
	})
}

// bridge evaluates ?- r2(a0, Y). on the Bridge workload, once per
// strategy, and reports the number of base facts.
func bridge(cfg Config, depth, expansion int, strats ...core.Strategy) ([]*core.Result, int, error) {
	facts := workload.Bridge(workload.BridgeConfig{Depth: depth, Expansion: expansion})
	res, err := runEach(cfg, workload.BridgeRules(), facts, "?- r2(a0, Y).", core.Options{}, strats...)
	return res, len(facts.Facts), err
}

func runT3(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "expansion", "magic(follow)", "magic(split)", "derived(follow)", "derived(split)",
		"cost-policy-chose", "cheaper", "chosen/cheaper")
	ratios := []int{1, 2, 3, 4, 6, 8, 12}
	agree := 0
	for _, x := range ratios {
		res, _, err := bridge(cfg, 32, x, core.StrategyMagicFollow, core.StrategyMagicSplit, core.StrategyMagic)
		if err != nil {
			return nil, err
		}
		follow, split := res[0].Metrics, res[1].Metrics
		chose := choice(res[2].Plan, "bridge")
		cheaper, best := "tie", follow.DerivedTuples
		switch {
		case split.DerivedTuples < follow.DerivedTuples:
			cheaper, best = "split", split.DerivedTuples
		case follow.DerivedTuples < split.DerivedTuples:
			cheaper = "follow"
		}
		got := follow.DerivedTuples
		if chose == "split" {
			got = split.DerivedTuples
		}
		// Plan quality as a paired percentage on one executor: the
		// chosen plan's derived tuples over the cheaper plan's.
		t.add(x, follow.MagicTuples, split.MagicTuples, follow.DerivedTuples, split.DerivedTuples,
			chose, cheaper, fmt.Sprintf("%d%%", 100*got/max(best, 1)))
		if got == best {
			agree++
		}
		r.check(got == best, "expansion %d: Algorithm 3.1 chose %s, deriving %d tuples where the cheaper plan derives %d", x, chose, got, best)
		r.check(sameAnswers(res[0], res[1]) && sameAnswers(res[0], res[2]), "expansion %d: the policies' answers differ", x)
		r.check(x != 1 || cheaper == "tie", "expansion 1: the plans do not coincide (%d vs %d derived)", follow.DerivedTuples, split.DerivedTuples)
	}
	r.Measured = fmt.Sprintf("the chosen plan derives 100%% of the cheaper plan's tuples at %d/%d expansion ratios %s; the plans tie exactly at ratio 1",
		agree, len(ratios), series(ratios...))
	return r, nil
}

// runF2 sweeps the expansion ratio from 1 to 2048 at two chain depths,
// so the base facts grow from a dozen to the repository benchmark's
// scale (≈35,000).
func runF2(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "depth", "facts", "expansion", "magic(follow)", "magic(split)", "derived(follow)", "derived(split)",
		"magic-ratio", "derived-ratio")
	depths := []int{4, 8}
	expansions := []int{1, 2, 8, 32, 128, 512, 2048}
	var last []string
	var lastMagic float64
	facts := 0
	for _, d := range depths {
		var prevMagic, prevDerived float64
		last = last[:0]
		for _, x := range expansions {
			res, n, err := bridge(cfg, d, x, core.StrategyMagicFollow, core.StrategyMagicSplit)
			if err != nil {
				return nil, err
			}
			facts = n
			f, s := res[0].Metrics, res[1].Metrics
			mr := float64(f.MagicTuples) / float64(max(s.MagicTuples, 1))
			dr := float64(f.DerivedTuples) / float64(max(s.DerivedTuples, 1))
			t.add(d, n, x, f.MagicTuples, s.MagicTuples, f.DerivedTuples, s.DerivedTuples,
				fmt.Sprintf("%.2f", mr), fmt.Sprintf("%.3f", dr))
			r.check(sameAnswers(res[0], res[1]), "depth %d, expansion %d: the policies' answers differ", d, x)
			if x == 1 {
				r.check(f.MagicTuples == s.MagicTuples && f.DerivedTuples == s.DerivedTuples,
					"depth %d: the plans do not coincide at expansion 1", d)
			} else {
				r.check(mr > prevMagic && dr > prevDerived,
					"depth %d: split's gain did not grow at expansion %d (magic ratio %.3f after %.3f, derived ratio %.3f after %.3f)",
					d, x, mr, prevMagic, dr, prevDerived)
			}
			prevMagic, prevDerived = mr, dr
			last = append(last, fmt.Sprintf("%.3f", dr))
		}
		lastMagic = prevMagic
	}
	r.Measured = fmt.Sprintf("at every depth %s the follow/split ratios rise with expansion %s; at depth %d (%d facts) the derived ratio is %s and the magic-set ratio reaches %.2f",
		series(depths...), series(expansions...), depths[len(depths)-1], facts, strings.Join(last, "/"), lastMagic)
	return r, nil
}
