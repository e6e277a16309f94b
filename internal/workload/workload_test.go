package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// loadDB builds a core.DB from rules source plus generated facts.
func loadDB(t *testing.T, rules string, facts *program.Program) *core.DB {
	t.Helper()
	res, err := lang.Parse(rules)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB()
	db.Load(res.Program)
	db.Load(facts)
	return db
}

func ask(t *testing.T, db *core.DB, q string, opts core.Options) *core.Result {
	t.Helper()
	goals, err := lang.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(goals.Goals, opts)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return res
}

func TestFamilyShape(t *testing.T) {
	p := Family(FamilyConfig{Generations: 2, Fanout: 2, Roots: 1, Countries: 2, Seed: 1})
	counts := map[string]int{}
	for _, f := range p.Facts {
		counts[f.Pred]++
	}
	// Generations: g0 (1 root), g1 (2), g2 (4). parent: 2 + 4 = 6.
	if counts["parent"] != 6 {
		t.Errorf("parent = %d, want 6", counts["parent"])
	}
	// Siblings: self-sibling root (1) + g1: 2 ordered pairs + g2: each
	// of 2 parents × 2 ordered pairs = 4. Total 1 + 2 + 4 = 7.
	if counts["sibling"] != 7 {
		t.Errorf("sibling = %d, want 7", counts["sibling"])
	}
	if counts["same_country"] == 0 {
		t.Error("no same_country facts")
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a := Family(FamilyConfig{Generations: 2, Fanout: 2, Roots: 1, Countries: 3, Seed: 9})
	b := Family(FamilyConfig{Generations: 2, Fanout: 2, Roots: 1, Countries: 3, Seed: 9})
	if a.String() != b.String() {
		t.Error("Family not deterministic")
	}
}

func TestFamilySGSanity(t *testing.T) {
	// Two cousins in generation 2 are same-generation relatives.
	p := Family(FamilyConfig{Generations: 2, Fanout: 2, Roots: 1, Countries: 1, Seed: 1})
	db := loadDB(t, SGRules(), p)
	res := ask(t, db, fmt.Sprintf("?- sg(%s, Y).", PersonName(2, 0)), core.Options{})
	// g2_0's same-generation set: all of g2 (cousins via g0 root's
	// self-sibling and siblings via parents).
	if len(res.Answers) != 4 {
		t.Errorf("sg answers = %d, want 4: %v", len(res.Answers), res.Answers)
	}
}

func TestFamilySCSGSanityCountries(t *testing.T) {
	// With one country, scsg == sg restricted to same-country parents
	// (everyone matches). With many countries, fewer or equal answers.
	p1 := Family(FamilyConfig{Generations: 3, Fanout: 2, Roots: 1, Countries: 1, Seed: 3})
	db1 := loadDB(t, SCSGRules(), p1)
	res1 := ask(t, db1, fmt.Sprintf("?- scsg(%s, Y).", PersonName(3, 0)), core.Options{})

	p2 := Family(FamilyConfig{Generations: 3, Fanout: 2, Roots: 1, Countries: 8, Seed: 3})
	db2 := loadDB(t, SCSGRules(), p2)
	res2 := ask(t, db2, fmt.Sprintf("?- scsg(%s, Y).", PersonName(3, 0)), core.Options{})

	if len(res1.Answers) == 0 {
		t.Fatal("one-country scsg has no answers")
	}
	if len(res2.Answers) > len(res1.Answers) {
		t.Errorf("more countries gave more answers: %d > %d", len(res2.Answers), len(res1.Answers))
	}
}

func TestSCSGPolicyAgreementOnWorkload(t *testing.T) {
	p := Family(FamilyConfig{Generations: 3, Fanout: 2, Roots: 1, Countries: 2, Seed: 5})
	goal := fmt.Sprintf("?- scsg(%s, Y).", PersonName(3, 1))
	var counts []int
	for _, s := range []core.Strategy{core.StrategyMagicFollow, core.StrategyMagic, core.StrategyMagicSplit, core.StrategyTopDown} {
		db := loadDB(t, SCSGRules(), p)
		res := ask(t, db, goal, core.Options{Strategy: s})
		counts = append(counts, len(res.Answers))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("strategy disagreement: %v", counts)
		}
	}
}

func TestFlightsLayeredAcyclic(t *testing.T) {
	p := Flights(FlightsConfig{Cities: 3, OutDegree: 2, Layered: true, Layers: 3, Seed: 7})
	if len(p.Facts) != 3*3*2 {
		t.Errorf("flights = %d, want 18", len(p.Facts))
	}
	db := loadDB(t, TravelRules(), p)
	res := ask(t, db, fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", CityName(0, 0)), core.Options{})
	if len(res.Answers) == 0 {
		t.Fatal("no itineraries in layered network")
	}
	// Max route length = Layers.
	for _, a := range res.Answers {
		if n := term.ListLen(a[0]); n < 1 || n > 3 {
			t.Errorf("route length %d out of range: %v", n, a)
		}
	}
}

func TestFlightsCyclicDivergesWithoutConstraint(t *testing.T) {
	p := Flights(FlightsConfig{Cities: 3, OutDegree: 2, Seed: 7})
	db := loadDB(t, TravelRules(), p)
	goals, _ := lang.ParseQuery(fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", CityName(-1, 0)))
	_, err := db.Query(goals.Goals, core.Options{MaxLevels: 50, MaxAnswers: 2000})
	if err == nil {
		t.Fatal("cyclic unconstrained travel terminated (expected budget error)")
	}
}

func TestFlightsCyclicTerminatesWithFareBound(t *testing.T) {
	p := Flights(FlightsConfig{Cities: 3, OutDegree: 2, MaxFare: 100, Seed: 7})
	db := loadDB(t, TravelRules(), p)
	res := ask(t, db, fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< 150.", CityName(-1, 0)), core.Options{MaxLevels: 500})
	if len(res.Plan.Pushed) == 0 {
		t.Fatalf("fare bound not pushed: %v", res.Plan.NotPushed)
	}
	for _, a := range res.Answers {
		if a[5].(term.Int).V > 150 {
			t.Errorf("violating fare: %v", a)
		}
	}
}

func TestBridgeExpansionControlsMagicSize(t *testing.T) {
	for _, r := range []int{1, 3, 6} {
		p := Bridge(BridgeConfig{Depth: 4, Expansion: r})
		dbF := loadDB(t, BridgeRules(), p)
		resF := ask(t, dbF, "?- r2(a0, Y).", core.Options{Strategy: core.StrategyMagicFollow})
		dbS := loadDB(t, BridgeRules(), p)
		resS := ask(t, dbS, "?- r2(a0, Y).", core.Options{Strategy: core.StrategyMagicSplit})
		if len(resF.Answers) != len(resS.Answers) {
			t.Fatalf("r=%d: follow %d answers, split %d", r, len(resF.Answers), len(resS.Answers))
		}
		if len(resF.Answers) != r {
			t.Errorf("r=%d: %d answers, want %d", r, len(resF.Answers), r)
		}
		if r > 1 && resF.Metrics.MagicTuples <= resS.Metrics.MagicTuples {
			t.Errorf("r=%d: follow magic %d not larger than split magic %d",
				r, resF.Metrics.MagicTuples, resS.Metrics.MagicTuples)
		}
	}
}

func TestAlternatingWorkload(t *testing.T) {
	p := Alternating(AlternatingConfig{Layers: 4, Width: 3, OutDegree: 2, Seed: 5})
	counts := map[string]int{}
	for _, f := range p.Facts {
		counts[f.Pred]++
	}
	// Even layers (0, 2) emit aEdge, odd (1, 3) bEdge: 2 layers × 3
	// nodes × 2 out-degree each.
	if counts["aEdge"] != 12 || counts["bEdge"] != 12 {
		t.Errorf("counts = %v", counts)
	}
	// Defaults fill in.
	d := Alternating(AlternatingConfig{})
	if len(d.Facts) == 0 {
		t.Error("default Alternating produced no facts")
	}
	if NodeName(0, 0) != "m0_0" {
		t.Errorf("NodeName = %q", NodeName(0, 0))
	}
	// The rules parse and evaluate against the workload.
	db := loadDB(t, AlternatingRules(), p)
	res := ask(t, db, "?- reachA(m0_0, Y).", core.Options{})
	if len(res.Answers) == 0 {
		t.Error("no alternating reachability")
	}
}

func TestWorkloadDefaults(t *testing.T) {
	// Zero-valued configs must produce sane workloads, not panics.
	if len(Family(FamilyConfig{}).Facts) == 0 {
		t.Error("default Family empty")
	}
	if len(Flights(FlightsConfig{}).Facts) == 0 {
		t.Error("default Flights empty")
	}
	if len(Bridge(BridgeConfig{}).Facts) == 0 {
		t.Error("default Bridge empty")
	}
	if AppendRules() == "" || SortRules() == "" || TravelRules() == "" {
		t.Error("rule sources empty")
	}
}

func TestRandomInts(t *testing.T) {
	a := RandomInts(10, 100, 42)
	b := RandomInts(10, 100, 42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("RandomInts not deterministic")
	}
	for _, v := range a {
		if v < 0 || v >= 100 {
			t.Errorf("out of range: %d", v)
		}
	}
}

func TestSortRulesRun(t *testing.T) {
	res, err := lang.Parse(SortRules())
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB()
	db.Load(res.Program)
	vals := RandomInts(8, 50, 3)
	goal := program.NewAtom("isort", term.IntList(vals...), term.NewVar("Ys"))
	out, err := db.Query([]program.Atom{goal}, core.Options{})
	if err != nil || len(out.Answers) != 1 {
		t.Fatalf("isort on workload: %v %v", out, err)
	}
}

// TestFamilyFactsPinned pins the fact stream, in order, of the family
// configurations the benchmark builds (seed 101): its sha256 over each
// fact's text, one per line.
func TestFamilyFactsPinned(t *testing.T) {
	cases := []struct {
		gens, countries int
		want            string
	}{
		{13, 1 << 20, "0b0c986822f1ba0e9c7cc9573cb6aab80b3a1ee2898ca663619a2f1ec5e4ac57"},
		{8, 2, "43c67e1b4fe5996438a750ffea8dfbd81e55f5cac1b6fb065a5ab9a46049b9bb"},
		{9, 4, "dd3aeb63404d3e44fdf17b0b45884a9cb479ceafafb6ee99fe3f33443e947a66"},
		{7, 4, "dad5327028792a642edcb51e9f40e62c09da9b6e4d944aa4bc8f20de8f12a334"},
	}
	for _, c := range cases {
		p := Family(FamilyConfig{Generations: c.gens, Fanout: 2, Roots: 1, Countries: c.countries, Seed: 101})
		h := sha256.New()
		for _, f := range p.Facts {
			fmt.Fprintf(h, "%s\n", f)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("Family(Generations %d, Countries %d): fact stream sha256 %s, want %s", c.gens, c.countries, got, c.want)
		}
	}
}
