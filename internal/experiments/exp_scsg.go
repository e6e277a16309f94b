package experiments

import (
	"fmt"
	"math"

	"chainsplit/internal/core"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "T2",
		Title:    "scsg: chain-split vs chain-following magic sets as same_country densifies",
		PaperRef: "Example 1.2 and §3.1 (Algorithm 3.1)",
		Claim: "chain-following magic on scsg degenerates toward a cross-product magic set; " +
			"chain-split keeps one chain's bindings; the gap grows with same_country density",
		Run: runT2,
	})
	register(Experiment{
		ID:       "F1",
		Title:    "scsg per-iteration delta profile: split stays flat, follow explodes",
		PaperRef: "Example 1.2 (cross-product magic sets)",
		Claim:    "per-iteration profile: follow's magic rounds carry whole same-country generations",
		Run:      runF1,
	})
}

// scsg evaluates ?- scsg(p, Y). for the first person p of the youngest
// generation of a 4-generation, fanout-3 family spread over the given
// number of countries, once per strategy.
func scsg(cfg Config, countries int, opts core.Options, strats ...core.Strategy) ([]*core.Result, error) {
	const gens = 4
	fam := workload.Family(workload.FamilyConfig{Generations: gens, Fanout: 3, Roots: 1, Countries: countries, Seed: 11})
	q := fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(gens, 0))
	return runEach(cfg, workload.SCSGRules(), fam, q, opts, strats...)
}

func runT2(cfg Config) (*Report, error) {
	r := &Report{}
	t := r.table("", "countries", "policy", "answers", "magic", "derived", "chosen-by-cost")
	strats := []core.Strategy{core.StrategyMagicFollow, core.StrategyMagicSplit, core.StrategyMagic}
	countries := []int{1, 2, 4, 8, 16}
	var followM, splitM []int
	splits := 0
	prev := math.Inf(1)
	for _, c := range countries {
		res, err := scsg(cfg, c, core.Options{}, strats...)
		if err != nil {
			return nil, err
		}
		chose := choice(res[2].Plan, "same_country")
		for i, s := range strats {
			cell := "-"
			if s == core.StrategyMagic {
				cell = chose
			}
			t.add(c, s, len(res[i].Answers), res[i].Metrics.MagicTuples, res[i].Metrics.DerivedTuples, cell)
		}
		fm, sm := res[0].Metrics.MagicTuples, res[1].Metrics.MagicTuples
		r.check(sameAnswers(res[0], res[1]) && sameAnswers(res[0], res[2]), "countries %d: the policies' answers differ", c)
		r.check(sm < fm, "countries %d: split's magic set (%d) is not smaller than follow's (%d)", c, sm, fm)
		r.check(chose == "split", "countries %d: Algorithm 3.1 chose follow although split's magic set is smaller (%d vs %d)", c, sm, fm)
		gap := float64(fm) / float64(max(sm, 1))
		r.check(gap <= prev, "countries %d: follow/split magic-set ratio %.2f grew as same_country got sparser", c, gap)
		prev = gap
		followM, splitM = append(followM, fm), append(splitM, sm)
		if chose == "split" {
			splits++
		}
	}
	r.Measured = fmt.Sprintf("follow's magic set holds %s tuples vs split's %s at countries %s (%.1f× → %.1f×); Algorithm 3.1 chose split at %d/%d densities",
		series(followM...), series(splitM...), series(countries...),
		float64(followM[0])/float64(max(splitM[0], 1)), prev, splits, len(countries))
	return r, nil
}

func runF1(cfg Config) (*Report, error) {
	r := &Report{}
	strats := []core.Strategy{core.StrategyMagicFollow, core.StrategyMagicSplit}
	var parts []string
	var ratios []float64
	for _, c := range []int{1, 8} {
		res, err := scsg(cfg, c, core.Options{Trace: true}, strats...)
		if err != nil {
			return nil, err
		}
		t := r.table(fmt.Sprintf("countries = %d", c), "policy", "total", "largest", "iteration-deltas (tuples derived per semi-naive round)")
		var total, largest [2]int
		for i, s := range strats {
			var rounds []int
			for _, d := range res[i].Metrics.Deltas {
				n := 0
				for _, v := range d.DeltaSizes {
					n += v
				}
				rounds = append(rounds, n)
				total[i] += n
				largest[i] = max(largest[i], n)
			}
			t.add(s, total[i], largest[i], fmt.Sprint(rounds))
		}
		r.check(sameAnswers(res[0], res[1]), "countries %d: the policies' answers differ", c)
		ratios = append(ratios, float64(total[0])/float64(max(total[1], 1)))
		parts = append(parts, fmt.Sprintf("countries=%d: follow derives %d tuples in total (largest round %d) vs split's %d (largest %d)",
			c, total[0], largest[0], total[1], largest[1]))
	}
	dense, sparse := ratios[0], ratios[1]
	r.check(dense > 1, "countries=1: follow derives no more than split (ratio %.2f)", dense)
	r.check(math.Abs(sparse-1) < math.Abs(dense-1), "the profiles do not converge: follow/split total ratio %.2f at countries=8 vs %.2f at countries=1", sparse, dense)
	r.Measured = fmt.Sprintf("%s; %s", parts[0], parts[1])
	return r, nil
}
