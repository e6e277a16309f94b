package relation

// Tests of the prefix layout: a relation reads exactly its prefix of the
// log it shares, whatever the clone, abandon and query-time write
// history behind it, and while a writer extends the log.

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

// generation is one frozen relation of a history and the tuples it
// must hold, in order.
type generation struct {
	r      *Relation
	tuples []Tuple
}

// history writes a random history over one log: each step inserts a
// batch into the writer's relation, sometimes builds an index or takes
// a count mid-history, freezes it as a generation and clones it as the
// next. Now and then it also writes, and records, a relation off the
// lineage: an abandoned build (a clone written and dropped, which
// leaves positions in the log past its generation), a sibling clone
// written differently, or a query-time write over the generation.
type history struct {
	t      *testing.T
	rng    *rand.Rand
	r      *Relation
	tuples []Tuple
	gens   []generation
	// abandoned, siblings and over count the off-lineage writes, and
	// detached the lineage's clones that had to copy their prefix.
	abandoned, siblings, over, detached int
}

// write inserts up to n random tuples into r, whose tuples are held,
// checking each insert's verdict, and returns what r then holds.
func (h *history) write(r *Relation, held []Tuple, n int) []Tuple {
	held = slices.Clone(held)
	for range n {
		tp := layerTuple(h.rng)
		want := !slices.ContainsFunc(held, func(u Tuple) bool { return sameTuple(u, tp) })
		if got := r.Insert(tp); got != want {
			h.t.Fatalf("Insert(%v) = %v, want %v", tp, got, want)
		}
		if want {
			held = append(held, tp)
		}
	}
	return held
}

func (h *history) step() {
	rng := h.rng
	l := h.r.l
	h.tuples = h.write(h.r, h.tuples, rng.Intn(24))
	if h.r.l != l {
		h.detached++
	}
	if rng.Intn(4) == 0 {
		h.r.Index(layerCols[rng.Intn(len(layerCols))])
	}
	if rng.Intn(5) == 0 {
		h.r.DistinctOn(layerCols[rng.Intn(len(layerCols))])
	}
	h.r.Freeze()
	prev := h.r
	h.gens = append(h.gens, generation{prev, h.tuples})
	switch rng.Intn(6) {
	case 0:
		a := prev.Clone()
		held := h.write(a, h.tuples, 1+rng.Intn(8))
		a.Freeze()
		h.gens = append(h.gens, generation{a, held})
		h.abandoned++
	case 1:
		sib := prev.Clone()
		held := h.write(sib, h.tuples, 1+rng.Intn(24))
		sib.Freeze()
		h.gens = append(h.gens, generation{sib, held})
		h.siblings++
	case 2:
		q := prev.over()
		held := h.write(q, h.tuples, 1+rng.Intn(24))
		q.Freeze()
		h.gens = append(h.gens, generation{q, held})
		h.over++
	}
	h.r = prev.Clone()
}

// TestLayersMatchSingleLayer is the prefix oracle: every relation of a
// random history (see history) reads exactly what a relation built by
// plain inserts of its tuples reads — Len, At, Each, Contains, Probe,
// ProbeWindow and DistinctOn. Half of each history's generations are
// checked by readers running while the writer goes on extending the
// log, building indexes and keys-only tables in it as they go; run
// under -race.
func TestLayersMatchSingleLayer(t *testing.T) {
	seeds := int64(8)
	if raceEnabled {
		seeds = 3 // relation-race repeats the test instead
	}
	for seed := int64(1); seed <= seeds; seed++ {
		h := &history{t: t, rng: rand.New(rand.NewSource(seed)), r: New("p", 3)}
		for range 20 {
			h.step()
		}
		early := h.gens
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(early); i += 2 {
					if err := checkPrefix(early[i].r, early[i].tuples, false); err != nil {
						t.Errorf("seed %d generation %d, read while the writer extends the log: %v", seed, i, err)
						return
					}
				}
			}(g)
		}
		for range 20 {
			h.step()
		}
		wg.Wait()
		h.gens = append(h.gens, generation{h.r, h.tuples})
		if h.abandoned == 0 || h.siblings == 0 || h.over == 0 || h.detached == 0 {
			t.Fatalf("seed %d: %d abandoned builds, %d siblings, %d query-time writes, %d detached clones, want each",
				seed, h.abandoned, h.siblings, h.over, h.detached)
		}
		for i, g := range h.gens {
			// Every window of the last generation, outside the race
			// detector, under which that alone takes most of a minute.
			allWindows := !raceEnabled && seed <= 2 && i == len(h.gens)-1
			if err := checkPrefix(g.r, g.tuples, allWindows); err != nil {
				t.Fatalf("seed %d generation %d: %v", seed, i, err)
			}
		}
	}
}

// checkPrefix compares every read of r with those of a relation built
// by plain inserts of tuples. Windowed probes are compared at every
// [lo, hi) if allWindows is set, else at bounds around the base's end
// and at strided points, fewer under the race detector.
func checkPrefix(r *Relation, tuples []Tuple, allWindows bool) error {
	oracle := New("p", 3)
	for _, tp := range tuples {
		oracle.Insert(tp)
	}
	n := oracle.Len()
	if r.Len() != n {
		return fmt.Errorf("Len %d, want %d", r.Len(), n)
	}
	var each []Tuple
	r.Each(func(tp Tuple) bool {
		each = append(each, tp)
		return true
	})
	if len(each) != n {
		return fmt.Errorf("Each visits %d tuples, want %d", len(each), n)
	}
	for i := range n {
		if !sameTuple(r.At(i), oracle.At(i)) || !sameTuple(each[i], oracle.At(i)) {
			return fmt.Errorf("position %d holds %v (Each %v), want %v", i, r.At(i), each[i], oracle.At(i))
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range 64 {
		tp := layerTuple(rng)
		if r.Contains(tp) != oracle.Contains(tp) {
			return fmt.Errorf("Contains(%v) = %v, want %v", tp, r.Contains(tp), oracle.Contains(tp))
		}
	}
	points := []int{0, n - 1, n, n + 1}
	for d := -2; d <= 2; d++ {
		points = append(points, r.baseLen()+d)
	}
	stride := 1 + n/11
	if raceEnabled {
		stride = 1 + n/3 // the race detector slows each probe tenfold
	}
	for p := 0; p < n; p += stride {
		points = append(points, p)
	}
	if allWindows {
		points = points[:0]
		for p := 0; p <= n+1; p++ {
			points = append(points, p)
		}
	}
	slices.Sort(points)
	points = slices.Compact(points)
	for _, cols := range layerCols {
		if got, want := r.DistinctOn(cols), oracle.DistinctOn(cols); got != want {
			return fmt.Errorf("DistinctOn(%v) = %d, want %d", cols, got, want)
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
				return fmt.Errorf("Probe%v on %v differs from a single layer's", key, cols)
			}
			for _, lo := range points {
				for _, hi := range points {
					if !samePositions(ix.ProbeWindow(key, lo, hi), ox.ProbeWindow(key, lo, hi)) {
						return fmt.Errorf("ProbeWindow%v [%d, %d) on %v differs from a single layer's", key, lo, hi, cols)
					}
				}
			}
		}
	}
	return nil
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

// TestCloneSharesLog: a lineage of writes — clone the frozen relation,
// insert a batch, freeze — stays on one log and shares its chunks, so
// no write copies a stored tuple. A second clone of one generation,
// written after the lineage moved on, copies its prefix into a log of
// its own, once. No insert into a clone reaches the relation it was
// cloned from, and a query-time write (Ensure on a Snapshot) never
// extends the lineage's log.
func TestCloneSharesLog(t *testing.T) {
	cat := NewCatalog()
	r := cat.Ensure("p", 2)
	for i := range 5000 {
		r.Insert(tup(i, i%10))
	}
	r.Index([]int{1})
	cat.Freeze()
	l := r.l
	gens := []*Relation{r}
	next := 5000
	for w := range 100 {
		if w%10 == 0 {
			// A query writes over the current generation.
			q := cat.Snapshot()
			q.Ensure("p", 2).Insert(tup(-1-w, 0))
			if q.Get("p").base != r || l.n.Load() != int64(r.Len()) {
				t.Fatalf("write %d: a query-time write extended the log to %d past its generation's %d", w, l.n.Load(), r.Len())
			}
		}
		cat = cat.Next()
		c := cat.Ensure("p", 2)
		for range 16 {
			c.Insert(tup(next, next%10))
			next++
		}
		if c.l != l || &c.chunks[0][0] != &r.chunks[0][0] {
			t.Fatalf("write %d moved the lineage off its log", w)
		}
		cat.Freeze()
		gens = append(gens, c)
		r = c
	}
	old := gens[50]
	sib := old.Clone()
	sib.Insert(tup(-1, 0))
	moved := sib.l
	sib.Insert(tup(-2, 0))
	if moved == l || sib.l != moved || sib.Len() != old.Len()+2 || !sib.Contains(tup(999, 9)) || sib.Contains(tup(5800, 0)) {
		t.Fatalf("second clone: log shared %v, copied again %v, %d tuples (want %d)", moved == l, sib.l != moved, sib.Len(), old.Len()+2)
	}
	if m := sib.Index([]int{1}).Probe(tup(0)); m.Len() != (old.Len()+9)/10+2 {
		t.Fatalf("second clone's index finds %d tuples under 0, want %d", m.Len(), (old.Len()+9)/10+2)
	}
	for i, g := range gens {
		if g.Len() != 5000+16*i || g.Contains(tup(-1, 0)) || g.Index([]int{1}).Probe(tup(0)).Len() != (g.Len()+9)/10 {
			t.Fatalf("generation %d reads past its prefix: %d tuples, want %d", i, g.Len(), 5000+16*i)
		}
	}
	u := New("p", 2)
	u.Insert(tup(1, 2))
	uc := u.Clone()
	uc.Insert(tup(3, 4))
	u.Insert(tup(5, 6))
	if uc.l != &u.own || u.l == &u.own || u.Len() != 2 || uc.Len() != 2 || u.Contains(tup(3, 4)) || uc.Contains(tup(5, 6)) {
		t.Fatal("an unfrozen relation and its clone: the one that writes second must copy")
	}
}

// TestLayeredClonesConcurrent: the writer lineage (Ensure on a catalog
// from Next, which appends to the frozen relation's log) and a query
// (Ensure on a Snapshot, which writes a log of its own over it) each
// write over one frozen relation and probe what they wrote, while
// readers probe and count the frozen relation — building an index and
// keys-only tables in the shared log from several goroutines while the
// writer files into them. Run under -race.
func TestLayeredClonesConcurrent(t *testing.T) {
	cat := NewCatalog()
	base := cat.Ensure("p", 3)
	for i := range 2000 {
		base.Insert(tup(i%50, i, i%7))
	}
	// An index built before the freeze, which the writer files into.
	if m := base.Index([]int{0}).Probe(tup(0)); m.Len() != 40 {
		t.Fatalf("base: %d matches under 0, want 40", m.Len())
	}
	cat.Freeze()
	var wg sync.WaitGroup
	for w, c := range []*Catalog{cat.Next(), cat.Snapshot()} {
		wg.Add(1)
		go func(w int, c *Catalog) {
			defer wg.Done()
			rel := c.Ensure("p", 3)
			for i := range 300 {
				rel.Insert(tup(i%50, 10000*(w+1)+i, i%7))
				if m := rel.Index([]int{0}).Probe(tup(i % 50)); m.Len() < 40 {
					t.Errorf("writer %d: %d matches under %d", w, m.Len(), i%50)
					return
				}
				if i%50 == 0 {
					rel.DistinctOn([]int{0, 2})
				}
			}
			if rel.Len() != 2300 || rel.DistinctOn([]int{1}) != 2300 {
				t.Errorf("writer %d: relation holds %d tuples", w, rel.Len())
			}
			if shared := rel.l == base.l; shared != (w == 0) || (rel.base == base) == (w == 0) {
				t.Errorf("writer %d: shares the log %v, reads over it %v", w, shared, rel.base == base)
			}
		}(w, c)
	}
	for g := range 4 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 100 {
				cols := layerCols[(g+i)%3]
				if n := base.DistinctOn(cols); n != []int{50, 2000, 7}[cols[0]] {
					t.Errorf("reader %d: DistinctOn(%v) = %d", g, cols, n)
					return
				}
				if m := base.Index([]int{0, 2}).ProbeWindow(tup(i%50, i%7), 0, base.Len()); m.Len() == 0 {
					t.Errorf("reader %d: no match for (%d, _, %d)", g, i%50, i%7)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if base.Len() != 2000 {
		t.Fatalf("writes reached the frozen relation: %d tuples", base.Len())
	}
	for k := range 50 {
		if m := base.Index([]int{0}).Probe(tup(k)); m.Len() != 40 {
			t.Fatalf("writes reached the frozen relation's index: %d matches under %d, want 40", m.Len(), k)
		}
	}
	var got []int
	base.Each(func(tp Tuple) bool {
		got = append(got, int(tp[1].(term.Int).V))
		return true
	})
	if len(got) != 2000 || got[1999] != 1999 {
		t.Fatalf("frozen relation's order changed: %d tuples", len(got))
	}
}
