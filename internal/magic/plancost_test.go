package magic

import (
	"testing"

	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/workload"
)

// TestRewriteCostIndependentOfBaseFacts: planning a query is O(rules).
// Against a published (frozen) catalog whose statistics are warm, the
// cost-based rewrite of an sg query allocates exactly as much over a
// family of 8 generations as over one of 13 (≈40x the base facts):
// nothing in it may scan, copy or index the facts.
func TestRewriteCostIndependentOfBaseFacts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	res, err := lang.Parse(workload.SGRules())
	if err != nil {
		t.Fatal(err)
	}
	rules := program.Rectify(res.Program)
	goalQ, err := lang.ParseQuery("?- sg(" + workload.PersonName(3, 0) + ", Y).")
	if err != nil {
		t.Fatal(err)
	}
	goal := goalQ.Goals[0]

	allocs := func(gens int) float64 {
		fam := workload.Family(workload.FamilyConfig{Generations: gens, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 1})
		cat := catalogOf(fam)
		cat.Freeze()
		p := &program.Program{Rules: rules.Rules, Facts: fam.Facts}
		cfg := Config{Policy: PolicyCost, Model: &cost.Model{Cat: cat}, Supplementary: true}
		if _, err := Rewrite(p, goal, cfg); err != nil { // warms the statistics
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Rewrite(p, goal, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(13)
	if small != large {
		t.Fatalf("rewrite allocates %.0f objects over 8 generations but %.0f over 13: planning depends on base facts", small, large)
	}
}
