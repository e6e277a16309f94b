package topdown

import (
	"runtime"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// BenchmarkSolve times one top-down solve of the paper's list programs
// on a seeded random list, the sizes TestTopDownBytesPerStep bounds.
// Each iteration builds a fresh engine with the timer stopped, so the
// tables start empty; steps/op is the resolution steps of one solve and
// B/step the bytes the solve allocates per step.
func BenchmarkSolve(b *testing.B) {
	for _, r := range []struct {
		name, src, pred string
		n               int
	}{
		{"qsort256", qsortSrc, "qsort", 256},
		{"isort96", sortSrc, "isort", 96},
		{"append1024", qsortSrc, "append", 1024},
	} {
		b.Run(r.name, func(b *testing.B) {
			res, err := lang.Parse(r.src)
			if err != nil {
				b.Fatal(err)
			}
			prog := program.Rectify(res.Program)
			list := term.IntList(workload.RandomInts(r.n, 1<<20, int64(r.n))...)
			args := []term.Term{list, term.NewVar("Ys")}
			if r.pred == "append" {
				args = []term.Term{list, term.IntList(-1), term.NewVar("Ys")}
			}
			goals := []program.Atom{program.NewAtom(r.pred, args...)}
			var steps int
			var bytes uint64
			var before, after runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(prog, relation.NewCatalog(), Options{})
				runtime.ReadMemStats(&before)
				b.StartTimer()
				sols, err := e.SolveConjunction(goals)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if err != nil || len(sols) != 1 {
					b.Fatalf("%d solutions, error %v", len(sols), err)
				}
				steps += e.Stats().Steps
				bytes += after.TotalAlloc - before.TotalAlloc
				b.StartTimer()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(bytes)/float64(steps), "B/step")
		})
	}
}
