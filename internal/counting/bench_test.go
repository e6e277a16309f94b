package counting

import (
	"testing"

	"chainsplit/internal/chain"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// BenchmarkBuffered times one buffered evaluation of append and isort
// on a seeded random list and of travel over a layered acyclic flight
// network (six cities a layer, six layers). Each iteration builds a
// fresh evaluator, so no context or table is carried over.
func BenchmarkBuffered(b *testing.B) {
	flights := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 2, Layered: true, Layers: 6, Seed: 1})
	for _, r := range []struct {
		name, src string
		facts     []program.Atom
		goal      program.Atom
	}{
		{"append1024", workload.AppendRules(), nil, program.NewAtom("append",
			term.IntList(workload.RandomInts(1024, 1<<20, 1024)...), term.IntList(-1), term.NewVar("W"))},
		{"isort96", workload.SortRules(), nil, program.NewAtom("isort",
			term.IntList(workload.RandomInts(96, 1<<20, 96)...), term.NewVar("Ys"))},
		{"travel", workload.TravelRules(), flights.Facts, program.NewAtom("travel", term.NewVar("L"),
			term.NewSym(workload.CityName(0, 0)), term.NewVar("DT"), term.NewVar("A"), term.NewVar("AT"), term.NewVar("F"))},
	} {
		b.Run(r.name, func(b *testing.B) {
			res, err := lang.Parse(r.src)
			if err != nil {
				b.Fatal(err)
			}
			res.Program.Facts = append(res.Program.Facts, r.facts...)
			prog := program.Rectify(res.Program)
			comp, err := chain.Compile(prog, program.NewDepGraph(prog), r.goal.Key())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := New(prog, relation.NewCatalog(), comp, Options{}).Query(r.goal)
				if err != nil || len(ans) == 0 {
					b.Fatalf("%d answers, error %v", len(ans), err)
				}
			}
		})
	}
}
