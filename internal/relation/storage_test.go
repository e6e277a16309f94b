package relation

// Regression tests for the dictionary-encoded storage layer:
// DistinctOn's one-shot index retention and its memoization on frozen
// relations.

import (
	"slices"
	"sync"
	"testing"

	"chainsplit/internal/term"
)

func tup2(a, b string) Tuple {
	return Tuple{term.NewSym(a), term.NewSym(b)}
}

// TestDistinctOnNoIndexRetention: counting distinct projections on a
// relation with no prebuilt index must not build (and retain) one.
func TestDistinctOnNoIndexRetention(t *testing.T) {
	r := New("p", 2)
	r.Insert(tup2("a", "b"))
	r.Insert(tup2("a", "c"))
	r.Insert(tup2("d", "b"))

	if n := r.DistinctOn([]int{0}); n != 2 {
		t.Fatalf("DistinctOn(0) = %d, want 2", n)
	}
	if n := r.DistinctOn([]int{1}); n != 2 {
		t.Fatalf("DistinctOn(1) = %d, want 2", n)
	}
	if len(r.indexes) != 0 {
		t.Fatalf("DistinctOn retained %d indexes, want 0", len(r.indexes))
	}

	// With an index already built, DistinctOn reuses it.
	r.LookupOn([]int{0}, Tuple{term.NewSym("a")})
	if len(r.indexes) != 1 {
		t.Fatalf("LookupOn built %d indexes, want 1", len(r.indexes))
	}
	if n := r.DistinctOn([]int{0}); n != 2 {
		t.Fatalf("DistinctOn(0) with index = %d, want 2", n)
	}
	if len(r.indexes) != 1 {
		t.Fatalf("DistinctOn grew the index map to %d", len(r.indexes))
	}
}

// TestContainsNeverInterned: membership probes with constants the
// process has never seen must report absence (and, per ProbeID's
// contract, must not grow the dictionary).
func TestContainsNeverInterned(t *testing.T) {
	r := New("p", 2)
	r.Insert(tup2("a", "b"))
	before := term.DictStats()
	if r.Contains(Tuple{term.NewSym("zz-never-seen-1"), term.NewSym("zz-never-seen-2")}) {
		t.Fatal("Contains reported a never-interned tuple present")
	}
	if got := r.LookupOn([]int{0}, Tuple{term.NewSym("zz-never-seen-3")}); got != nil {
		t.Fatalf("LookupOn(never-interned) = %v, want nil", got)
	}
	if after := term.DictStats(); after != before {
		t.Fatalf("probing grew the dictionary: %+v -> %+v", before, after)
	}
}

// TestDistinctOnAllColumnsIsLen: projecting onto every column, in any
// order, is the relation itself — a set — so the count is Len, with no
// scan and nothing memoized.
func TestDistinctOnAllColumnsIsLen(t *testing.T) {
	r := New("p", 3)
	for i, s := range []string{"a", "b", "c", "d"} {
		r.Insert(Tuple{term.NewSym(s), term.NewSym("x"), term.NewInt(int64(i % 2))})
	}
	for _, cols := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		if n := r.DistinctOn(cols); n != r.Len() {
			t.Errorf("DistinctOn(%v) = %d, want Len %d", cols, n, r.Len())
		}
	}
	// Not every column: a repeated or missing column is a real count.
	if n := r.DistinctOn([]int{1, 1, 2}); n != 2 {
		t.Errorf("DistinctOn(1,1,2) = %d, want 2", n)
	}
	r.Freeze()
	r.DistinctOn([]int{2, 1, 0})
	if len(r.distinct) != 0 || len(r.indexes) != 0 {
		t.Fatalf("all-columns count memoized %d / indexed %d, want neither", len(r.distinct), len(r.indexes))
	}
}

// TestDistinctOnUnfrozenNotMemoized: a live relation may still grow, so
// a count taken before an insert must not answer after it.
func TestDistinctOnUnfrozenNotMemoized(t *testing.T) {
	r := New("p", 2)
	r.Insert(tup2("a", "b"))
	if n := r.DistinctOn([]int{0}); n != 1 {
		t.Fatalf("DistinctOn(0) = %d, want 1", n)
	}
	r.Insert(tup2("c", "b"))
	if n := r.DistinctOn([]int{0}); n != 2 {
		t.Fatalf("DistinctOn(0) after insert = %d, want 2 (stale count)", n)
	}
	if r.distinct != nil {
		t.Fatalf("unfrozen relation memoized %v", r.distinct)
	}

	// Frozen, the count is memoized; the clone a writer makes of it
	// starts without the memo.
	r.Freeze()
	if n := r.DistinctOn([]int{1}); n != 1 || r.distinct["1"] != 1 {
		t.Fatalf("frozen DistinctOn(1) = %d, memo %v", n, r.distinct)
	}
	c := r.Clone()
	c.Insert(tup2("e", "f"))
	if n := c.DistinctOn([]int{1}); n != 2 {
		t.Fatalf("clone DistinctOn(1) = %d, want 2", n)
	}
}

// TestDistinctOnFrozenConcurrent: readers of a published (frozen)
// relation count concurrently — the memo is written under idxMu while
// other readers probe it and build indexes. Run under -race.
func TestDistinctOnFrozenConcurrent(t *testing.T) {
	r := New("p", 3)
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{term.NewInt(int64(i % 7)), term.NewInt(int64(i % 11)), term.NewInt(int64(i))})
	}
	r.Freeze()
	want := map[int]int{0: 7, 1: 11, 2: 200}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				col := (g + i) % 3
				if n := r.DistinctOn([]int{col}); n != want[col] {
					t.Errorf("DistinctOn(%d) = %d, want %d", col, n, want[col])
					return
				}
				if i%10 == 0 {
					r.LookupOn([]int{(col + 1) % 3}, Tuple{term.NewInt(1)})
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProbeViewAllocationFree: once the index exists, Probe allocates
// nothing, sees the matches LookupOn copies out, and is a view as of
// the probe — later inserts do not leak into it.
func TestProbeViewAllocationFree(t *testing.T) {
	r := New("e", 3)
	for i := 0; i < 50; i++ {
		r.Insert(tup(i%5, i, "x"))
	}
	cols, key := []int{0, 2}, tup(3, "x")
	m := r.Index(cols).Probe(key)
	want := r.LookupOn(cols, key)
	if m.Len() != 10 || len(want) != 10 {
		t.Fatalf("Probe found %d, LookupOn %d, want 10", m.Len(), len(want))
	}
	for i := range want {
		if !sameTuple(m.At(i), want[i]) {
			t.Fatalf("match %d: Probe %v, LookupOn %v", i, m.At(i), want[i])
		}
	}
	r.Insert(tup(3, 100, "x"))
	if m.Len() != 10 || r.Index(cols).Probe(key).Len() != 11 {
		t.Fatalf("view saw a later insert or the index missed it")
	}
	if r.Index(cols).Probe(tup(3, "never-interned-symbol")).Len() != 0 {
		t.Fatal("a never-interned constant matched")
	}
	if n := testing.AllocsPerRun(100, func() { r.Index(cols).Probe(key) }); n != 0 {
		t.Fatalf("Probe allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.DistinctOn(cols) }); n != 0 {
		t.Fatalf("DistinctOn on an indexed column list allocates %.1f objects, want 0", n)
	}
}

// TestInsertCopy: the tuple is copied only when inserted, so the caller
// may reuse its buffer, and a tuple held by other is not inserted.
func TestInsertCopy(t *testing.T) {
	full, dst := New("p", 2), New("p", 2)
	full.Insert(tup("a", "b"))
	buf := tup("a", "b")
	if dst.InsertCopy(buf, full) || dst.Len() != 0 {
		t.Fatal("inserted a tuple the other relation holds")
	}
	buf[1] = term.NewSym("c")
	if !dst.InsertCopy(buf, full) || dst.InsertCopy(buf, nil) {
		t.Fatal("new tuple not inserted exactly once")
	}
	buf[1] = term.NewSym("d")
	if got := dst.At(0); !sameTuple(got, tup("a", "c")) {
		t.Fatalf("stored tuple aliases the caller's buffer: %v", got)
	}
	if !dst.Contains(tup("a", "c")) || dst.Contains(buf) {
		t.Fatal("presence set out of step with the stored tuple")
	}
}

// sameTuple reports component-wise term equality.
func sameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !term.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestProbeWindow: a windowed probe returns exactly the bucket's
// positions in [lo, hi), wherever the bucket straddles the bounds, and
// reads later inserts only when the window reaches them.
func TestProbeWindow(t *testing.T) {
	r := New("e", 2)
	for i := 0; i < 10; i++ {
		r.Insert(tup(i%2, i)) // column 1 is the insertion position
	}
	ix := r.Index([]int{0})
	check := func(key, lo, hi int, want ...int) {
		t.Helper()
		m := ix.ProbeWindow(tup(key), lo, hi)
		got := make([]int, m.Len())
		for i := range got {
			got[i] = int(m.At(i)[1].(term.Int).V)
		}
		if !slices.Equal(got, want) {
			t.Errorf("ProbeWindow(%d, [%d, %d)) = %v, want %v", key, lo, hi, got, want)
		}
	}
	check(0, 0, 10, 0, 2, 4, 6, 8)
	check(0, 3, 10, 4, 6, 8) // straddles lo
	check(1, 0, 6, 1, 3, 5)  // straddles hi
	check(0, 3, 7, 4, 6)     // straddles both
	check(1, 4, 5)           // a window between two positions of the bucket
	check(0, 5, 5)           // lo == hi
	check(0, 7, 3)           // lo > hi
	check(0, 10, 20)         // past the last position
	if m := ix.ProbeWindow(tup("never-interned-window-key"), 0, 10); m.Len() != 0 {
		t.Errorf("a never-interned key matched %d tuples", m.Len())
	}
	r.Insert(tup(0, 10))
	r.Insert(tup(1, 11))
	r.Insert(tup(0, 12))
	check(0, 3, 10, 4, 6, 8) // the old window does not see later inserts
	check(0, 10, 13, 10, 12)
	check(0, 0, 13, 0, 2, 4, 6, 8, 10, 12)
	key := tup(0)
	if n := testing.AllocsPerRun(100, func() { ix.ProbeWindow(key, 3, 11) }); n != 0 {
		t.Fatalf("ProbeWindow allocates %.1f objects per call, want 0", n)
	}
}

// TestIndexInsertExistingBucketAllocatesNoKey: filing a tuple under an
// index bucket that already exists allocates no key, so a relation with
// three indexes allocates per insert what one without indexes does (the
// presence key; slice and map growth amortize below one per insert).
func TestIndexInsertExistingBucketAllocatesNoKey(t *testing.T) {
	const n = 1000
	tuples := make([]Tuple, n+1) // AllocsPerRun adds a warm-up call
	for i := range tuples {
		tuples[i] = tup("a", "b", i)
	}
	perInsert := func(r *Relation) float64 {
		r.Insert(tup("a", "b", -1)) // the indexes' buckets exist from here on
		i := 0
		return testing.AllocsPerRun(n, func() {
			r.Insert(tuples[i])
			i++
		})
	}
	plain := perInsert(New("p", 3))
	indexed := New("p", 3)
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		indexed.Index(cols)
	}
	if got := perInsert(indexed); got != plain {
		t.Fatalf("an insert into three existing buckets allocates %.0f objects, one without indexes %.0f: want equal", got, plain)
	}
}
