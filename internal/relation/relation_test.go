package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"chainsplit/internal/term"
)

func tup(vals ...interface{}) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		switch vv := v.(type) {
		case int:
			t[i] = term.NewInt(int64(vv))
		case string:
			t[i] = term.NewSym(vv)
		case term.Term:
			t[i] = vv
		default:
			panic("bad test value")
		}
	}
	return t
}

func TestInsertDedup(t *testing.T) {
	r := New("e", 2)
	if !r.Insert(tup("a", "b")) {
		t.Error("first insert reported duplicate")
	}
	if r.Insert(tup("a", "b")) {
		t.Error("duplicate insert reported new")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(tup("a", "b")) || r.Contains(tup("b", "a")) {
		t.Error("Contains wrong")
	}
}

func TestInsertPanics(t *testing.T) {
	r := New("e", 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("arity mismatch did not panic")
			}
		}()
		r.Insert(tup("a"))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-ground tuple did not panic")
			}
		}()
		r.Insert(Tuple{term.NewVar("X"), term.NewSym("a")})
	}()
}

func TestInsertionOrderPreserved(t *testing.T) {
	r := New("e", 1)
	for i := 0; i < 100; i++ {
		r.Insert(tup(i))
	}
	for i := range r.Len() {
		if tu := r.At(i); !term.Equal(tu[0], term.NewInt(int64(i))) {
			t.Fatalf("order broken at %d: %v", i, tu)
		}
	}
}

func TestLookupOnUsesIncrementalIndex(t *testing.T) {
	r := New("e", 2)
	r.Insert(tup("a", "b"))
	// Build the index before further inserts…
	if got := r.LookupOn([]int{0}, tup("a")); len(got) != 1 {
		t.Fatalf("lookup = %v", got)
	}
	// …then verify it sees post-build inserts.
	r.Insert(tup("a", "c"))
	if got := r.LookupOn([]int{0}, tup("a")); len(got) != 2 {
		t.Errorf("index not maintained: %v", got)
	}
	if got := r.LookupOn([]int{1}, tup("c")); len(got) != 1 {
		t.Errorf("second index: %v", got)
	}
}

func TestSelect(t *testing.T) {
	r := New("flight", 3)
	r.Insert(tup("yvr", "yyc", 100))
	r.Insert(tup("yvr", "yow", 300))
	r.Insert(tup("yyc", "yow", 200))
	sel := r.Select(map[int]term.Term{0: term.NewSym("yvr")})
	if sel.Len() != 2 {
		t.Errorf("Select = %v", sel)
	}
	sel2 := r.Select(map[int]term.Term{0: term.NewSym("yvr"), 1: term.NewSym("yow")})
	if sel2.Len() != 1 {
		t.Errorf("two-column Select = %v", sel2)
	}
	all := r.Select(nil)
	if all.Len() != 3 {
		t.Errorf("empty Select = %v", all)
	}
}

func TestJoin(t *testing.T) {
	e := New("e", 2)
	e.Insert(tup("a", "b"))
	e.Insert(tup("b", "c"))
	e.Insert(tup("c", "d"))
	j := e.Join("j", e, []int{1}, []int{0})
	// paths of length 2: a-b-c, b-c-d
	if j.Len() != 2 || j.Arity() != 4 {
		t.Fatalf("Join = %v", j)
	}
	if !j.Contains(tup("a", "b", "b", "c")) {
		t.Errorf("missing joined tuple: %v", j)
	}
}

func TestJoinOnMultipleColumns(t *testing.T) {
	a := New("a", 3)
	a.Insert(tup("x", "y", 1))
	a.Insert(tup("x", "z", 2))
	b := New("b", 2)
	b.Insert(tup("x", "y"))
	j := a.Join("j", b, []int{0, 1}, []int{0, 1})
	if j.Len() != 1 || !j.Contains(tup("x", "y", 1, "x", "y")) {
		t.Errorf("multi-col join = %v", j)
	}
}

func TestDistinctOn(t *testing.T) {
	r := New("e", 2)
	r.Insert(tup("a", "b"))
	r.Insert(tup("a", "c"))
	r.Insert(tup("b", "c"))
	if got := r.DistinctOn([]int{0}); got != 2 {
		t.Errorf("DistinctOn(0) = %d", got)
	}
	if got := r.DistinctOn([]int{1}); got != 2 {
		t.Errorf("DistinctOn(1) = %d", got)
	}
	if got := r.DistinctOn([]int{0, 1}); got != 3 {
		t.Errorf("DistinctOn(0,1) = %d", got)
	}
}

func TestSorted(t *testing.T) {
	r := New("e", 1)
	r.Insert(tup(3))
	r.Insert(tup(1))
	r.Insert(tup(2))
	s := r.Sorted()
	for i, want := range []int64{1, 2, 3} {
		if !term.Equal(s[i][0], term.NewInt(want)) {
			t.Fatalf("Sorted = %v", s)
		}
	}
	// Sorted must not disturb insertion order.
	if !term.Equal(r.At(0)[0], term.NewInt(3)) {
		t.Error("Sorted mutated the relation")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	e := c.Ensure("e", 2)
	if c.Ensure("e", 2) != e {
		t.Error("Ensure returned a different relation")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("arity conflict did not panic")
			}
		}()
		c.Ensure("e", 3)
	}()
	if c.Get("missing") != nil {
		t.Error("Get(missing) != nil")
	}
	e.Insert(tup("a", "b"))
	cl := c.Snapshot()
	cl.Ensure("e", 2).Insert(tup("b", "c"))
	if e.Len() != 1 {
		t.Error("a write through a snapshot reached the original")
	}
	if c.TotalTuples() != 1 || cl.TotalTuples() != 2 {
		t.Errorf("TotalTuples = %d / %d", c.TotalTuples(), cl.TotalTuples())
	}
}

// tupleKey concatenates the term keys of t's columns.
func tupleKey(t Tuple) string {
	var buf []byte
	for _, v := range t {
		buf = term.AppendKey(buf, v)
	}
	return string(buf)
}

func TestTupleKeyCollisionFree(t *testing.T) {
	a := tup("ab", "c")
	b := tup("a", "bc")
	if tupleKey(a) == tupleKey(b) {
		t.Error("term keys collide across component boundaries")
	}
	ka, _ := AppendIDKey(nil, a)
	kb, _ := AppendIDKey(nil, b)
	if string(ka) == string(kb) {
		t.Error("packed ID keys collide across component boundaries")
	}
}

// ---- property tests ----

type tupleValue struct{ T Tuple }

func (tupleValue) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2
	t := make(Tuple, n)
	for i := range t {
		switch r.Intn(3) {
		case 0:
			t[i] = term.NewInt(int64(r.Intn(5)))
		case 1:
			t[i] = term.NewSym(string(rune('a' + r.Intn(4))))
		default:
			t[i] = term.IntList(int64(r.Intn(3)))
		}
	}
	return reflect.ValueOf(tupleValue{T: t})
}

func TestQuickInsertIdempotent(t *testing.T) {
	f := func(ts []tupleValue) bool {
		r := New("q", 2)
		seen := make(map[string]bool)
		for _, tv := range ts {
			grew := r.Insert(tv.T)
			if grew == seen[tupleKey(tv.T)] {
				return false
			}
			seen[tupleKey(tv.T)] = true
		}
		return r.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(as, bs []tupleValue) bool {
		a := New("a", 2)
		b := New("b", 2)
		for _, tv := range as {
			a.Insert(tv.T)
		}
		for _, tv := range bs {
			b.Insert(tv.T)
		}
		j := a.Join("j", b, []int{1}, []int{0})
		// Reference: nested loop join.
		want := 0
		for _, at := range a.Sorted() {
			for _, bt := range b.Sorted() {
				if term.Equal(at[1], bt[0]) {
					want++
					joined := append(append(Tuple{}, at...), bt...)
					if !j.Contains(joined) {
						return false
					}
				}
			}
		}
		return j.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
