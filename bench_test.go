package chainsplit

// One benchmark per reconstructed table (T1–T9) and figure (F1–F3);
// see DESIGN.md §2 for the mapping to the paper and cmd/benchtab for
// the harness that prints the corresponding tables. Benchmarks reuse
// the same workload generators and planner paths as the harness.

import (
	"fmt"
	"testing"

	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// benchDB builds a core DB from rules text plus generated facts.
func benchDB(b *testing.B, rules string, facts ...*program.Program) *core.DB {
	b.Helper()
	res, err := lang.Parse(rules)
	if err != nil {
		b.Fatal(err)
	}
	db := core.NewDB()
	db.Load(res.Program)
	for _, f := range facts {
		db.Load(f)
	}
	return db
}

func benchQuery(b *testing.B, db *core.DB, q string, opts core.Options, wantAnswers int) {
	b.Helper()
	goals, err := lang.ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(goals.Goals, opts)
		if err != nil {
			b.Fatal(err)
		}
		if wantAnswers >= 0 && len(res.Answers) != wantAnswers {
			b.Fatalf("answers = %d, want %d", len(res.Answers), wantAnswers)
		}
	}
}

// --- T1: sg chain evaluation, magic vs full seminaive ---

func BenchmarkT1_SG_Magic(b *testing.B) {
	fam := workload.Family(workload.FamilyConfig{Generations: 6, Fanout: 2, Roots: 1, Countries: 1, Seed: 1})
	db := benchDB(b, workload.SGRules(), fam)
	goal := fmt.Sprintf("?- sg(%s, Y).", workload.PersonName(6, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategyMagic}, -1)
}

func BenchmarkT1_SG_Seminaive(b *testing.B) {
	fam := workload.Family(workload.FamilyConfig{Generations: 6, Fanout: 2, Roots: 1, Countries: 1, Seed: 1})
	db := benchDB(b, workload.SGRules(), fam)
	goal := fmt.Sprintf("?- sg(%s, Y).", workload.PersonName(6, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategySeminaive}, -1)
}

// --- T2: scsg split vs follow on dense same_country ---

func benchSCSG(b *testing.B, countries int, strat core.Strategy) {
	fam := workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: countries, Seed: 11})
	db := benchDB(b, workload.SCSGRules(), fam)
	goal := fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0))
	benchQuery(b, db, goal, core.Options{Strategy: strat}, -1)
}

func BenchmarkT2_SCSG_Dense_Follow(b *testing.B) { benchSCSG(b, 1, core.StrategyMagicFollow) }
func BenchmarkT2_SCSG_Dense_Split(b *testing.B)  { benchSCSG(b, 1, core.StrategyMagicSplit) }
func BenchmarkT2_SCSG_Dense_Cost(b *testing.B)   { benchSCSG(b, 1, core.StrategyMagic) }
func BenchmarkT2_SCSG_Sparse_Follow(b *testing.B) {
	benchSCSG(b, 16, core.StrategyMagicFollow)
}
func BenchmarkT2_SCSG_Sparse_Split(b *testing.B) { benchSCSG(b, 16, core.StrategyMagicSplit) }

// --- T3/F2: expansion-ratio sweep point (r = 6) ---

func benchBridge(b *testing.B, r int, strat core.Strategy) {
	facts := workload.Bridge(workload.BridgeConfig{Depth: 64, Expansion: r})
	db := benchDB(b, workload.BridgeRules(), facts)
	benchQuery(b, db, "?- r2(a0, Y).", core.Options{Strategy: strat}, r)
}

func BenchmarkT3_Bridge_r6_Follow(b *testing.B) { benchBridge(b, 6, core.StrategyMagicFollow) }
func BenchmarkT3_Bridge_r6_Split(b *testing.B)  { benchBridge(b, 6, core.StrategyMagicSplit) }
func BenchmarkF2_Bridge_r1_Follow(b *testing.B) { benchBridge(b, 1, core.StrategyMagicFollow) }
func BenchmarkF2_Bridge_r12_Split(b *testing.B) { benchBridge(b, 12, core.StrategyMagicSplit) }

// --- T4: buffered append ---

func BenchmarkT4_Append1000_Buffered(b *testing.B) {
	vals := workload.RandomInts(1000, 1000, 4)
	db := benchDB(b, workload.AppendRules())
	goal := program.NewAtom("append", term.IntList(vals...), term.IntList(-1), term.NewVar("W"))
	goals := []program.Atom{goal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(goals, core.Options{})
		if err != nil || len(res.Answers) != 1 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// --- T5: travel on layered flights ---

func benchTravel(b *testing.B, strat core.Strategy) {
	fl := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 3, Layered: true, Layers: 6, Seed: 5})
	db := benchDB(b, workload.TravelRules(), fl)
	goal := fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", workload.CityName(0, 0))
	benchQuery(b, db, goal, core.Options{Strategy: strat}, -1)
}

func BenchmarkT5_Travel_Buffered(b *testing.B) { benchTravel(b, core.StrategyBuffered) }
func BenchmarkT5_Travel_TopDown(b *testing.B)  { benchTravel(b, core.StrategyTopDown) }

// --- T6: constraint pushing on the cyclic network ---

func BenchmarkT6_TravelFareBound(b *testing.B) {
	fl := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 2, MaxFare: 100, Seed: 9})
	db := benchDB(b, workload.TravelRules(), fl)
	goal := fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< 200.", workload.CityName(-1, 0))
	benchQuery(b, db, goal, core.Options{MaxLevels: 100000}, -1)
}

// --- T7/T8: sorting recursions ---

func BenchmarkT7_Isort40_Buffered(b *testing.B) {
	vals := workload.RandomInts(40, 1000, 7)
	db := benchDB(b, workload.SortRules())
	goals := []program.Atom{program.NewAtom("isort", term.IntList(vals...), term.NewVar("Ys"))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(goals, core.Options{Strategy: core.StrategyBuffered})
		if err != nil || len(res.Answers) != 1 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

func BenchmarkT8_Qsort40_TopDown(b *testing.B) {
	vals := workload.RandomInts(40, 1000, 13)
	db := benchDB(b, workload.SortRules())
	goals := []program.Atom{program.NewAtom("qsort", term.IntList(vals...), term.NewVar("Ys"))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(goals, core.Options{})
		if err != nil || len(res.Answers) != 1 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// --- T9: method comparison on sg (buffered = counting, topdown) ---

func benchSGMethod(b *testing.B, strat core.Strategy) {
	fam := workload.Family(workload.FamilyConfig{Generations: 6, Fanout: 2, Roots: 1, Countries: 1, Seed: 1})
	db := benchDB(b, workload.SGRules(), fam)
	goal := fmt.Sprintf("?- sg(%s, Y).", workload.PersonName(6, 0))
	benchQuery(b, db, goal, core.Options{Strategy: strat}, -1)
}

func BenchmarkT9_SG_Buffered(b *testing.B) { benchSGMethod(b, core.StrategyBuffered) }
func BenchmarkT9_SG_TopDown(b *testing.B)  { benchSGMethod(b, core.StrategyTopDown) }

// --- F1: delta-trace overhead on scsg ---

func BenchmarkF1_SCSG_DeltaTrace(b *testing.B) {
	fam := workload.Family(workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 1, Seed: 11})
	db := benchDB(b, workload.SCSGRules(), fam)
	goal := fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategyMagicFollow, Trace: true}, -1)
}

// --- A1: supplementary ablation (fixed point of the sweep) ---

func BenchmarkA1_NonlinearMagic_Supplementary(b *testing.B) {
	src := "nl(X, Y) :- e(X, Y).\nnl(X, Y) :- nl(X, Z), nl(Z, Y).\n"
	for i := 0; i < 32; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
	}
	db := benchDB(b, src)
	benchQuery(b, db, "?- nl(n0, Y).", core.Options{Strategy: core.StrategyMagicFollow}, 32)
}

// --- A2: constraint pushing vs evaluate-then-filter ---

func BenchmarkA2_FareBoundPushed(b *testing.B) {
	fl := workload.Flights(workload.FlightsConfig{Cities: 5, OutDegree: 3, Layered: true, Layers: 6, MaxFare: 100, Seed: 21})
	db := benchDB(b, workload.TravelRules(), fl)
	goal := fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< 100.", workload.CityName(0, 0))
	benchQuery(b, db, goal, core.Options{}, -1)
}

// --- A3: SCC-wide buffered evaluation of mutual recursion ---

func BenchmarkA3_MutualBuffered(b *testing.B) {
	alt := workload.Alternating(workload.AlternatingConfig{Layers: 10, Width: 4, OutDegree: 2, Seed: 17})
	db := benchDB(b, workload.AlternatingRules(), alt)
	goal := fmt.Sprintf("?- reachA(%s, Y).", workload.NodeName(0, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategyBuffered}, -1)
}

func BenchmarkA3_MutualTopDown(b *testing.B) {
	alt := workload.Alternating(workload.AlternatingConfig{Layers: 10, Width: 4, OutDegree: 2, Seed: 17})
	db := benchDB(b, workload.AlternatingRules(), alt)
	goal := fmt.Sprintf("?- reachA(%s, Y).", workload.NodeName(0, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategyTopDown}, -1)
}

// --- F3: buffered level profile on travel ---

func BenchmarkF3_Travel_LevelProfile(b *testing.B) {
	fl := workload.Flights(workload.FlightsConfig{Cities: 5, OutDegree: 2, Layered: true, Layers: 6, Seed: 13})
	db := benchDB(b, workload.TravelRules(), fl)
	goal := fmt.Sprintf("?- travel(L, %s, DT, A, AT, F).", workload.CityName(0, 0))
	benchQuery(b, db, goal, core.Options{Strategy: core.StrategyBuffered, Trace: true}, -1)
}
