package core

import (
	"reflect"
	"testing"

	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/workload"
)

// TestPlanStatisticsMatchFreshCatalog: a published generation answers
// the cost model from memoized counts and from indexes its queries
// built. The plan must be exactly the one a fresh copy of the catalog —
// no memo, no index, every count scanned — gives: the same decisions
// (expansion, choice, why) and the same rewritten rules.
func TestPlanStatisticsMatchFreshCatalog(t *testing.T) {
	for _, tc := range []struct {
		name, rules, query string
		facts              *program.Program
	}{
		{"sg", workload.SGRules(), "?- sg(g4_0, Y).",
			workload.Family(workload.FamilyConfig{Generations: 6, Countries: 1 << 20, Seed: 1})},
		{"scsg", workload.SCSGRules(), "?- scsg(g5_0, Y).",
			workload.Family(workload.FamilyConfig{Generations: 5, Countries: 2, Seed: 1})},
		{"travel", workload.TravelRules(), "?- travel(L, c0_0, DT, A, AT, F).",
			workload.Flights(workload.FlightsConfig{Cities: 4, OutDegree: 2, Layered: true, Layers: 3, Seed: 5})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := load(t, tc.rules)
			if err := db.Load(tc.facts); err != nil {
				t.Fatal(err)
			}
			q, err := lang.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			for i := 0; i < 2; i++ { // the second query plans against warm statistics
				if res, err = db.Query(q.Goals, Options{Strategy: StrategyMagic}); err != nil {
					t.Fatal(err)
				}
			}
			if len(res.Plan.Decisions) == 0 {
				t.Fatal("no propagation decisions: the comparison would be vacuous")
			}

			rewrite := func(m *cost.Model) *magic.Rewritten {
				rw, err := magic.Rewrite(db.Program(), q.Goals[0], magic.Config{Policy: magic.PolicyCost, Model: m, Supplementary: true})
				if err != nil {
					t.Fatal(err)
				}
				return rw
			}
			cold := relation.NewCatalog()
			for _, n := range db.Catalog().Names() {
				r := db.Catalog().Get(n)
				cold.Ensure(n, r.Arity()).InsertAll(r)
			}
			fresh := rewrite(&cost.Model{Cat: cold})
			warm := rewrite(&cost.Model{Cat: db.Catalog()})
			if !reflect.DeepEqual(res.Plan.Decisions, fresh.Decisions) {
				t.Errorf("decisions differ from a fresh catalog's:\nwarm:  %+v\nfresh: %+v", res.Plan.Decisions, fresh.Decisions)
			}
			if len(warm.Program.Rules) != len(fresh.Program.Rules) || warm.Program.String() != fresh.Program.String() {
				t.Errorf("rewritten program differs from a fresh catalog's:\nwarm:\n%s\nfresh:\n%s", warm.Program, fresh.Program)
			}
		})
	}
}
