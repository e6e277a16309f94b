package relation

// Tests of the base/tail layout: a relation cloned across generations
// must read exactly as one built by plain inserts, whatever the
// clone, freeze and merge history behind it.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"chainsplit/internal/term"
)

// layerCols are the column lists the oracle test probes and counts on
// arity-3 relations: single and multiple columns, out of order,
// repeated, and every column.
var layerCols = [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {1, 1}, {0, 1, 2}, {2, 1, 0}}

// layerTuple draws a tuple from a domain small enough that inserts
// repeat and probe keys share buckets.
func layerTuple(rng *rand.Rand) Tuple {
	return tup(rng.Intn(16), fmt.Sprintf("s%d", rng.Intn(6)), rng.Intn(3))
}

// generation is one state of the layered relation under test and the
// single-layer relation built from the same inserts.
type generation struct {
	r, oracle *Relation
}

// TestLayersMatchSingleLayer runs random histories of insert, freeze,
// clone (of frozen and unfrozen relations, so merges land at varied
// points, and now and then a second clone of one relation written
// differently) and checks every generation, including the frozen ones
// later generations were cloned from, against a single-layer relation
// built by the same inserts. A clone carries the tail's built indexes;
// inserts into it must leave the parent's buckets as they were.
func TestLayersMatchSingleLayer(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var gens []generation
		r, oracle := New("p", 3), New("p", 3)
		var merges, shared, carried int
		// held records, for each index a clone carried, its buckets as
		// they were at the clone.
		type heldIndex struct {
			ix      *Index
			buckets [][]int
		}
		var held []heldIndex
		for step := 0; step < 40; step++ {
			for range rng.Intn(24) {
				tp := layerTuple(rng)
				if got, want := r.Insert(tp), oracle.Insert(tp); got != want {
					t.Fatalf("seed %d step %d: Insert(%v) = %v, single layer %v", seed, step, tp, got, want)
				}
			}
			if rng.Intn(4) == 0 {
				// Probe mid-history, so indexes exist before later inserts
				// and clones.
				r.Index(layerCols[rng.Intn(len(layerCols))])
			}
			if rng.Intn(5) == 0 {
				r.DistinctOn(layerCols[rng.Intn(len(layerCols))])
			}
			if rng.Intn(6) != 0 {
				r.Freeze()
			}
			gens = append(gens, generation{r, oracle})
			prev, prevOracle := r, oracle
			r, oracle = r.Clone(), oracle.Clone()
			if rng.Intn(3) == 0 {
				// A sibling clone of the same relation, written
				// differently: clones that carry one index must not
				// share its buckets' spare capacity.
				sib, sibOracle := prev.Clone(), prevOracle.Clone()
				for range 1 + rng.Intn(24) {
					tp := layerTuple(rng)
					sib.Insert(tp)
					sibOracle.Insert(tp)
				}
				gens = append(gens, generation{sib, sibOracle})
			}
			switch {
			case r.base != nil && r.base == prev.base:
				shared++
			case r.base != nil && prev.base != nil:
				merges++
			}
			if r.base == prev.base {
				// The tail was copied, and with it every index built on
				// it: the clone's next inserts file into the copies, and
				// the final checks probe them.
				if len(r.indexes) != len(prev.indexes) {
					t.Fatalf("seed %d step %d: clone carries %d of %d tail indexes", seed, step, len(r.indexes), len(prev.indexes))
				}
				if len(prev.indexes) > 0 {
					carried++
				}
				for _, ix := range prev.indexes {
					held = append(held, heldIndex{ix, slices.Clone(ix.buckets)})
					for i, bk := range held[len(held)-1].buckets {
						held[len(held)-1].buckets[i] = slices.Clone(bk)
					}
				}
			}
		}
		gens = append(gens, generation{r, oracle})
		if merges == 0 || shared == 0 || carried == 0 {
			t.Fatalf("seed %d: %d merges, %d shared-base clones and %d clones carrying an index, want each", seed, merges, shared, carried)
		}
		for i, g := range gens {
			checkSameRelation(t, fmt.Sprintf("seed %d generation %d", seed, i), g.r, g.oracle, seed <= 2 && i == len(gens)-1)
		}
		for _, h := range held {
			if !slices.EqualFunc(h.ix.buckets, h.buckets, slices.Equal) {
				t.Fatalf("seed %d: a clone's inserts changed the buckets of the index it carried", seed)
			}
		}
	}
}

// checkSameRelation compares every read of r with oracle's. Windowed
// probes are compared at every [lo, hi) if allWindows is set, else at
// bounds around the base's end and at strided points.
func checkSameRelation(t *testing.T, where string, r, oracle *Relation, allWindows bool) {
	t.Helper()
	n := oracle.Len()
	if r.Len() != n {
		t.Fatalf("%s: Len %d, want %d", where, r.Len(), n)
	}
	var each []Tuple
	r.Each(func(tp Tuple) bool {
		each = append(each, tp)
		return true
	})
	if len(each) != n {
		t.Fatalf("%s: Each visits %d tuples, want %d", where, len(each), n)
	}
	for i := range n {
		if !sameTuple(r.At(i), oracle.At(i)) || !sameTuple(each[i], oracle.At(i)) {
			t.Fatalf("%s: position %d holds %v (Each %v), want %v", where, i, r.At(i), each[i], oracle.At(i))
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range 64 {
		tp := layerTuple(rng)
		if r.Contains(tp) != oracle.Contains(tp) {
			t.Fatalf("%s: Contains(%v) = %v, want %v", where, tp, r.Contains(tp), oracle.Contains(tp))
		}
	}
	points := []int{0, n - 1, n, n + 1}
	for d := -2; d <= 2; d++ {
		points = append(points, r.baseLen()+d)
	}
	for p := 0; p < n; p += 1 + n/11 {
		points = append(points, p)
	}
	if allWindows {
		points = points[:0]
		for p := 0; p <= n+1; p++ {
			points = append(points, p)
		}
	}
	for _, cols := range layerCols {
		if got, want := r.DistinctOn(cols), oracle.DistinctOn(cols); got != want {
			t.Fatalf("%s: DistinctOn(%v) = %d, want %d", where, cols, got, want)
		}
		ix, ox := r.Index(cols), oracle.Index(cols)
		// The first few keys in insertion order, and one no tuple holds.
		keys := []Tuple{make(Tuple, len(cols))}
		for k := range cols {
			keys[0][k] = term.NewSym("held-by-no-tuple")
		}
		for i := 0; i < n && len(keys) < 7; i++ {
			key := make(Tuple, len(cols))
			for k, c := range cols {
				key[k] = oracle.At(i)[c]
			}
			if !slices.ContainsFunc(keys, func(k Tuple) bool { return sameTuple(k, key) }) {
				keys = append(keys, key)
			}
		}
		for _, key := range keys {
			if !samePositions(ix.Probe(key), ox.Probe(key)) {
				t.Fatalf("%s: Probe%v on %v differs from a single layer's", where, key, cols)
			}
			for _, lo := range points {
				for _, hi := range points {
					if !samePositions(ix.ProbeWindow(key, lo, hi), ox.ProbeWindow(key, lo, hi)) {
						t.Fatalf("%s: ProbeWindow%v [%d, %d) on %v differs from a single layer's", where, key, lo, hi, cols)
					}
				}
			}
		}
	}
}

// samePositions reports whether two views hold the same tuples in the
// same order.
func samePositions(a, b Matches) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !sameTuple(a.At(i), b.At(i)) {
			return false
		}
	}
	return true
}

// TestCloneSharesBase: a frozen relation without a base becomes its
// clone's base; a clone of that clone shares the same base and copies
// only the tail, until the tail outgrows tailBound, when the clone
// merges the two into a new base. No insert into a clone reaches the
// relation it was cloned from.
func TestCloneSharesBase(t *testing.T) {
	r := New("p", 2)
	for i := range 1000 {
		r.Insert(tup(i, i%10))
	}
	r.Freeze()
	c := r.Clone()
	if c.base != r || len(c.tuples) != 0 {
		t.Fatalf("clone of a frozen relation: base %p (want %p), tail %d", c.base, r, len(c.tuples))
	}
	bound := tailBound(r.Len())
	next := 1000
	for c.base == r {
		for range 16 {
			c.Insert(tup(next, next%10))
			next++
		}
		c.Freeze()
		prev := c
		c = c.Clone()
		if c.base == r && len(c.tuples) != len(prev.tuples) {
			t.Fatalf("shared-base clone copied %d tail tuples of %d", len(c.tuples), len(prev.tuples))
		}
		if c.base != r && (len(prev.tuples) <= bound || c.Len() != prev.Len() || len(c.tuples) != 0) {
			t.Fatalf("merged a tail of %d (bound %d) into a base of %d tuples, %d in total", len(prev.tuples), bound, c.base.Len(), prev.Len())
		}
	}
	if r.Len() != 1000 || !c.base.Frozen() || c.Frozen() {
		t.Fatalf("after the merge: original holds %d tuples, new base frozen %v, clone frozen %v", r.Len(), c.base.Frozen(), c.Frozen())
	}
	u := New("p", 2)
	u.Insert(tup(1, 2))
	if uc := u.Clone(); uc.base != nil || uc.Len() != 1 {
		t.Fatal("an unfrozen relation without a base must be copied, not shared")
	}
}

// TestLayeredClonesConcurrent: a writer and a query-time Ensure each
// clone one frozen relation with a base, then write and probe their
// clones while readers probe and count the shared original — building
// the shared base's indexes and memos from several goroutines at once.
// Run under -race.
func TestLayeredClonesConcurrent(t *testing.T) {
	base := New("p", 3)
	for i := range 2000 {
		base.Insert(tup(i%50, i, i%7))
	}
	base.Freeze()
	shared := base.Clone()
	for i := range 40 {
		shared.Insert(tup(i%50, 5000+i, i%7))
	}
	// A built tail index, which every clone of shared carries.
	if m := shared.Index([]int{0}).Probe(tup(0)); m.Len() != 41 {
		t.Fatalf("shared: %d matches under 0, want 41", m.Len())
	}
	shared.Freeze()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := shared.Clone()
			// Readers may build shared's index on (0, 2) at any moment;
			// the one on 0 was built before shared was frozen.
			if len(c.indexes) == 0 || !slices.Equal(c.indexes[0].cols, []int{0}) {
				t.Errorf("writer %d: clone does not carry the tail index on 0", w)
				return
			}
			for i := range 300 {
				c.Insert(tup(i%50, 10000*(w+1)+i, i%7))
				if m := c.Index([]int{0}).Probe(tup(i % 50)); m.Len() < 40 {
					t.Errorf("writer %d: %d matches under %d", w, m.Len(), i%50)
					return
				}
				if i%50 == 0 {
					c.DistinctOn([]int{0, 2})
				}
			}
			if c.Len() != 2340 || c.DistinctOn([]int{1}) != 2340 {
				t.Errorf("writer %d: clone holds %d tuples", w, c.Len())
			}
		}(w)
	}
	for g := range 4 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 100 {
				cols := layerCols[(g+i)%3]
				if n := shared.DistinctOn(cols); n != []int{50, 2040, 7}[cols[0]] {
					t.Errorf("reader %d: DistinctOn(%v) = %d", g, cols, n)
					return
				}
				if m := shared.Index([]int{0, 2}).ProbeWindow(tup(i%50, i%7), 0, shared.Len()); m.Len() == 0 {
					t.Errorf("reader %d: no match for (%d, _, %d)", g, i%50, i%7)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if shared.Len() != 2040 || base.Len() != 2000 {
		t.Fatalf("clones wrote into the shared relations: %d and %d tuples", shared.Len(), base.Len())
	}
	for k := range 50 {
		if m, want := shared.Index([]int{0}).Probe(tup(k)), 40+btoi(k < 40); m.Len() != want {
			t.Fatalf("clones wrote into the shared tail index: %d matches under %d, want %d", m.Len(), k, want)
		}
	}
	var got []int
	shared.Each(func(tp Tuple) bool {
		got = append(got, int(tp[1].(term.Int).V))
		return true
	})
	if len(got) != 2040 || got[1999] != 1999 || got[2000] != 5000 {
		t.Fatalf("shared relation's order changed: %d tuples", len(got))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
