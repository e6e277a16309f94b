package relation

import (
	"fmt"
	"testing"

	"chainsplit/internal/term"
)

func buildChainRel(n int) *Relation {
	r := New("e", 2)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{term.NewSym(fmt.Sprintf("n%d", i)), term.NewSym(fmt.Sprintf("n%d", i+1))})
	}
	return r
}

// insertBatch is the number of tuples BenchmarkInsert inserts per
// iteration.
const insertBatch = 100_000

// BenchmarkInsert inserts the same insertBatch distinct tuples into a
// fresh relation per iteration, so ns/tuple reads the cost of growing a
// table to insertBatch tuples whatever b.N is. B/op and allocs/op are
// per batch.
func BenchmarkInsert(b *testing.B) {
	tuples := make([]Tuple, insertBatch)
	for i := range tuples {
		tuples[i] = Tuple{term.NewInt(int64(i)), term.NewInt(int64(i + 1))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := New("e", 2)
		b.StartTimer()
		for _, t := range tuples {
			r.Insert(t)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insertBatch), "ns/tuple")
}

func BenchmarkLookupIndexed(b *testing.B) {
	r := buildChainRel(10000)
	key := Tuple{term.NewSym("n5000")}
	r.LookupOn([]int{0}, key) // build index outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.LookupOn([]int{0}, key)) != 1 {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	r := buildChainRel(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := r.Join("j", r, []int{1}, []int{0})
		if j.Len() != 1999 {
			b.Fatalf("join size %d", j.Len())
		}
	}
}

// cloneWrites is how many generations BenchmarkCloneInsert writes
// before it starts again from the loaded relation, so the relation's
// size stays near n however large b.N is.
const cloneWrites = 256

// BenchmarkCloneInsert is a write's storage step: clone the frozen
// relation of the current generation and insert a batch of 16 tuples,
// then freeze the clone as the next generation. An op is one write, at
// a relation of n tuples loaded in one batch. Every cloneWrites writes
// the lineage starts again from a copy of the loaded relation, made
// with the timer stopped: the loaded relation's own log has moved on.
func BenchmarkCloneInsert(b *testing.B) {
	for _, n := range []int{10_000, 160_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			loaded := New("e", 2)
			for i := range n {
				loaded.Insert(Tuple{term.NewInt(int64(i)), term.NewInt(int64(i / 2))})
			}
			loaded.Freeze()
			batches := make([][]Tuple, cloneWrites)
			for w := range batches {
				for i := range 16 {
					k := n + w*16 + i
					batches[w] = append(batches[w], Tuple{term.NewInt(int64(k)), term.NewInt(int64(k % n))})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var r *Relation
			for i := range b.N {
				w := i % cloneWrites
				if w == 0 {
					b.StopTimer()
					r = loaded.Clone()
					r.detach()
					r.Freeze()
					b.StartTimer()
				}
				c := r.Clone()
				for _, t := range batches[w] {
					c.Insert(t)
				}
				c.Freeze()
				r = c
			}
		})
	}
}
