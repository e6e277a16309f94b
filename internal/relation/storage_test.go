package relation

// Regression tests for the dictionary-encoded storage layer:
// DistinctOn's keys-only tables, probe views, storage cost and table
// growth.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"chainsplit/internal/term"
)

func tup2(a, b string) Tuple {
	return Tuple{term.NewSym(a), term.NewSym(b)}
}

// TestDistinctOnNoIndexRetention: counting distinct projections on a
// relation with no prebuilt index must not build (and retain) one with
// postings — neither on the relation nor, for a clone, on the log it
// shares, which keeps a keys-only table of distinct projections
// instead.
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
	if len(r.indexes) != 0 || r.l.lookup([]int{0}, true) != nil || r.l.lookup([]int{1}, true) != nil {
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

	b := New("p", 2)
	b.Insert(tup2("a", "b"))
	b.Insert(tup2("d", "b"))
	b.Freeze()
	c := b.Clone()
	c.Insert(tup2("e", "f"))
	if n := c.DistinctOn([]int{1}); n != 2 {
		t.Fatalf("clone DistinctOn(1) = %d, want 2", n)
	}
	if len(b.indexes) != 0 || len(c.indexes) != 0 || c.l.lookup([]int{1}, true) != nil {
		t.Fatalf("DistinctOn on a clone retained %d base and %d clone indexes, want 0", len(b.indexes), len(c.indexes))
	}
	if n := b.DistinctOn([]int{0}); n != 2 {
		t.Fatalf("the clone's insert shows in the original's count: DistinctOn(0) = %d, want 2", n)
	}
}

// TestContainsNeverInterned: membership probes with constants no
// relation holds report absence and add no dictionary entry. Building
// a constant interns it, so the probe terms are built before the
// snapshot; a big integer never interned still short-circuits.
func TestContainsNeverInterned(t *testing.T) {
	r := New("p", 2)
	r.Insert(tup2("a", "b"))
	absent := Tuple{term.NewSym("zz-never-seen-1"), term.NewSym("zz-never-seen-2")}
	lookup, big := Tuple{term.NewSym("zz-never-seen-3")}, Tuple{term.NewInt(1<<60 + 999_999_929)}
	before := term.DictStats()
	if r.Contains(absent) {
		t.Fatal("Contains reported a never-inserted tuple present")
	}
	for _, key := range []Tuple{lookup, big} {
		if got := r.LookupOn([]int{0}, key); got != nil {
			t.Fatalf("LookupOn(%v) = %v, want nil", key, got)
		}
	}
	if after := term.DictStats(); after != before {
		t.Fatalf("probing grew the dictionary: %+v -> %+v", before, after)
	}
}

// TestDistinctOnAllColumnsIsLen: projecting onto every column, in any
// order, is the relation itself — a set — so the count is Len, with no
// scan and no table kept.
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
	r = r.Clone()
	r.DistinctOn([]int{2, 1, 0})
	if r.l.lookup([]int{2, 1, 0}, false) != nil || len(r.indexes) != 0 {
		t.Fatalf("all-columns count kept a table (%d indexes), want none", len(r.indexes))
	}
}

// TestDistinctOnUnfrozenNotMemoized: a live relation may still grow, so
// a count taken before an insert must not answer after it; and a count
// of a frozen relation must not see what its clone inserts into the log
// they share.
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

	r.Freeze()
	if n := r.DistinctOn([]int{1}); n != 1 {
		t.Fatalf("frozen DistinctOn(1) = %d, want 1", n)
	}
	c := r.Clone()
	c.Insert(tup2("e", "f"))
	if n := c.DistinctOn([]int{1}); n != 2 {
		t.Fatalf("clone DistinctOn(1) = %d, want 2", n)
	}
	if n := r.DistinctOn([]int{1}); n != 1 {
		t.Fatalf("frozen DistinctOn(1) after the clone's insert = %d, want 1", n)
	}
}

// TestDistinctOnFrozenConcurrent: readers of a published (frozen)
// relation count concurrently — keys-only tables are built in the log
// while other readers count with them and build indexes. Run under
// -race.
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

	// Two layers: a query-time write over the frozen relation reads a
	// base bucket and a bucket of its own log, still allocating nothing.
	r.Freeze()
	c := r.over()
	for i := 0; i < 5; i++ {
		c.Insert(tup(3, 200+i, "x"))
	}
	if c.base != r {
		t.Fatal("the query-time relation does not read the frozen relation as its base")
	}
	ix := c.Index(cols)
	if m := ix.Probe(key); m.Len() != 16 || int(m.At(10)[1].(term.Int).V) != 100 || int(m.At(11)[1].(term.Int).V) != 200 {
		t.Fatalf("two-layer Probe found %d, want the base's 11 then the tail's 5", m.Len())
	}
	if m := ix.ProbeWindow(key, 48, 53); m.Len() != 4 {
		t.Fatalf("two-layer ProbeWindow over the layers' seam found %d, want 4", m.Len())
	}
	if n := testing.AllocsPerRun(100, func() { ix.Probe(key); ix.ProbeWindow(key, 48, 53) }); n != 0 {
		t.Fatalf("two-layer probes allocate %.1f objects per call, want 0", n)
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
// three indexes allocates per insert what one without indexes does
// (slice and table growth amortize below one per insert).
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

// TestRelationStorageCost bounds what a stored tuple costs: 100,000
// arity-2 tuples with one single-column index take at most
// maxBytesPerTuple of heap after a collection (tuple, terms, presence
// table and index together), and a write of the next generation —
// Clone of the frozen relation, which shares its log, plus one insert,
// then Freeze — makes at most maxCloneAllocs allocations, however many
// tuples it holds.
func TestRelationStorageCost(t *testing.T) {
	if raceEnabled {
		t.Skip("heap and allocation counts are not repeatable under the race detector")
	}
	const (
		n                = 100_000
		maxBytesPerTuple = 100
		maxCloneAllocs   = 8
	)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	r := New("e", 2)
	for i := range n {
		r.Insert(Tuple{term.NewInt(int64(i)), term.NewInt(int64(i % 1000))})
	}
	r.Index([]int{1})
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perTuple := float64(ms.HeapAlloc-before) / n
	runtime.KeepAlive(r)
	r.Freeze()
	extras := make([]Tuple, 6) // AllocsPerRun adds a warm-up call
	for i := range extras {
		extras[i] = Tuple{term.NewInt(int64(-1 - i)), term.NewInt(-1)}
	}
	w := 0
	allocs := testing.AllocsPerRun(5, func() {
		c := r.Clone()
		c.Insert(extras[w])
		c.Freeze()
		r, w = c, w+1
	})
	t.Logf("%d tuples: %.1f B of heap per tuple; Clone plus one insert: %.0f allocations", n, perTuple, allocs)
	if perTuple > maxBytesPerTuple {
		t.Errorf("%.1f B of heap per tuple, want <= %d", perTuple, maxBytesPerTuple)
	}
	if allocs > maxCloneAllocs {
		t.Errorf("Clone plus one insert makes %.0f allocations, want <= %d", allocs, maxCloneAllocs)
	}
}

// TestTablesGrow: the presence table and indexes built before and after
// the inserts stay exact across many doublings, never more than 3/4
// full.
func TestTablesGrow(t *testing.T) {
	r := New("p", 3)
	early := r.Index([]int{1})
	for i := range 5000 {
		if !r.Insert(tup(i, i%7, fmt.Sprintf("s%d", i%13))) {
			t.Fatalf("insert %d reported a duplicate", i)
		}
		if r.Insert(tup(i/2, (i/2)%7, fmt.Sprintf("s%d", (i/2)%13))) {
			t.Fatalf("re-insert of tuple %d grew the relation", i/2)
		}
		if n := len(r.l.present.st.Load().table); n&(n-1) != 0 || 4*r.Len() > 3*n {
			t.Fatalf("%d tuples in a presence table of %d slots", r.Len(), n)
		}
	}
	late := r.Index([]int{0, 2})
	for i := range 5000 {
		if !r.Contains(tup(i, i%7, fmt.Sprintf("s%d", i%13))) || r.Contains(tup(i, i%7+1, fmt.Sprintf("s%d", i%13))) {
			t.Fatalf("presence of tuple %d is wrong", i)
		}
		if m := late.Probe(tup(i, fmt.Sprintf("s%d", i%13))); m.Len() != 1 || !sameTuple(m.At(0), r.At(i)) {
			t.Fatalf("late index finds %d tuples for tuple %d", m.Len(), i)
		}
	}
	for k := range 7 {
		m := early.Probe(tup(k))
		if want := (5000 - k + 6) / 7; m.Len() != want {
			t.Fatalf("early index: %d tuples under %d, want %d", m.Len(), k, want)
		}
		for j := range m.Len() {
			if got := int(m.At(j)[0].(term.Int).V); got != k+7*j {
				t.Fatalf("early index: match %d under %d is tuple %d", j, k, got)
			}
		}
	}
}

// TestCloneDiverges: a relation and its clone, or two clones of one
// frozen relation, share one log, and whichever inserts second copies
// its prefix into a log of its own; either way inserts into the two
// land in two tables, each seeing only its own.
func TestCloneDiverges(t *testing.T) {
	shared := func() *Relation {
		r := New("p", 2)
		for i := range 100 {
			r.Insert(tup(i, "shared"))
		}
		return r
	}
	unfrozen := shared()
	frozen := shared()
	frozen.Freeze()
	for name, pair := range map[string][2]*Relation{
		"original and clone": {unfrozen, unfrozen.Clone()},
		"two clones":         {frozen.Clone(), frozen.Clone()},
	} {
		r, c := pair[0], pair[1]
		for i := range 300 { // enough to grow both tables
			r.Insert(tup(i, "orig"))
			c.Insert(tup(i, "clone"))
		}
		for i := range 300 {
			if !r.Contains(tup(i, "orig")) || r.Contains(tup(i, "clone")) ||
				!c.Contains(tup(i, "clone")) || c.Contains(tup(i, "orig")) {
				t.Fatalf("%s: tuple %d: the two share an insert", name, i)
			}
		}
		for i := range 100 {
			if !r.Contains(tup(i, "shared")) || !c.Contains(tup(i, "shared")) || c.Insert(tup(i, "shared")) {
				t.Fatalf("%s: tuple %d held before the clone is missing from one side", name, i)
			}
		}
		if r.Len() != 400 || c.Len() != 400 {
			t.Fatalf("%s: lengths %d and %d, want 400 each", name, r.Len(), c.Len())
		}
		if m := c.Index([]int{1}).Probe(tup("orig")); m.Len() != 0 {
			t.Fatalf("%s: the clone's index finds %d of the other's inserts", name, m.Len())
		}
	}
	if frozen.Len() != 100 {
		t.Fatalf("clones wrote into the frozen relation they share: %d tuples", frozen.Len())
	}
}

// TestDistinctOnMatchesIndex: the keys-only table counts what an index
// on the same columns holds as keys, and what a map of the
// projections' strings counts.
func TestDistinctOnMatchesIndex(t *testing.T) {
	for _, cols := range [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {1, 1}} {
		r := New("p", 3)
		seen := map[string]bool{}
		for i := range 500 {
			tp := tup(i%11, fmt.Sprintf("s%d", i%17), i%5)
			r.Insert(tp)
			key := ""
			for _, c := range cols {
				key += tp[c].String() + ","
			}
			seen[key] = true
		}
		counted := r.DistinctOn(cols)
		if ix := r.Index(cols); counted != len(seen) || int(ix.li.keys.Load()) != counted || r.DistinctOn(cols) != counted {
			t.Errorf("DistinctOn(%v) counted %d, index holds %d keys, want %d", cols, counted, ix.li.keys.Load(), len(seen))
		}
	}
}

// TestProbeAbsentConstant: a constant built but held by no relation —
// interned at construction — and a big integer never interned both
// match nothing, through every probe.
func TestProbeAbsentConstant(t *testing.T) {
	r := New("p", 2)
	for i := range 50 {
		r.Insert(tup(i, "b"))
	}
	ix := r.Index([]int{0})
	for _, c := range []term.Term{term.NewSym("held-by-no-relation"), term.NewStr("b"), term.NewInt(1<<60 + 999_999_893)} {
		if r.Contains(Tuple{c, term.NewSym("b")}) || ix.Probe(Tuple{c}).Len() != 0 ||
			ix.ProbeWindow(Tuple{c}, 0, r.Len()).Len() != 0 || r.LookupOn([]int{1}, Tuple{c}) != nil {
			t.Fatalf("%s matched a stored tuple", c)
		}
	}
}
