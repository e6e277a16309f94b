package term

import (
	"fmt"
	"sync"
	"testing"
)

func TestIDOfDistinguishesKinds(t *testing.T) {
	// Same surface text in different namespaces must never collide.
	terms := []Term{
		NewSym("a"), NewStr("a"), NewInt(0), NewInt(1), NewInt(-1),
		NewSym("0"), NewStr("0"),
		NewComp("a", NewSym("a")),
		NewComp("a", NewStr("a")),
		NewComp("a", NewInt(0)),
		NewComp("f", NewSym("a"), NewSym("b")),
		NewComp("f", NewSym("b"), NewSym("a")),
		NewComp("f", NewComp("f", NewSym("a"))),
	}
	seen := make(map[ID]Term)
	for _, tm := range terms {
		id, ok := IDOf(tm)
		if !ok {
			t.Fatalf("IDOf(%s) not ok", tm)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("ID collision: %s and %s both map to %d", prev, tm, id)
		}
		seen[id] = tm
	}
}

func TestIDOfStable(t *testing.T) {
	a1, _ := IDOf(NewComp("g", NewSym("x"), NewInt(7)))
	a2, _ := IDOf(NewComp("g", NewSym("x"), NewInt(7)))
	if a1 != a2 {
		t.Fatalf("structurally equal compounds got different IDs: %d vs %d", a1, a2)
	}
}

func TestIDOfNonGround(t *testing.T) {
	for _, tm := range []Term{NewVar("X"), NewComp("f", NewVar("X"))} {
		if id, ok := IDOf(tm); ok {
			t.Fatalf("IDOf(%s) = %d, ok — want not ok for non-ground", tm, id)
		}
		if id, ok := ProbeID(tm); ok {
			t.Fatalf("ProbeID(%s) = %d, ok — want not ok for non-ground", tm, id)
		}
	}
}

func TestSmallAndBigInts(t *testing.T) {
	small := []int64{0, 1, -1, 1<<60 - 1, -(1 << 60)}
	for _, v := range small {
		id, ok := IDOf(NewInt(v))
		if !ok {
			t.Fatalf("IDOf(%d) not ok", v)
		}
		// Small ints carry their value: probing must agree without any
		// dictionary entry.
		pid, ok := ProbeID(NewInt(v))
		if !ok || pid != id {
			t.Fatalf("ProbeID(%d) = %d,%v, want %d", v, pid, ok, id)
		}
	}
	big := []int64{1 << 60, -(1<<60 + 1), 1<<62 + 3}
	ids := make(map[ID]int64)
	for _, v := range big {
		id, ok := IDOf(NewInt(v))
		if !ok {
			t.Fatalf("IDOf(big %d) not ok", v)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("big-int ID collision: %d and %d", prev, v)
		}
		ids[id] = v
	}
}

func TestProbeNeverInterns(t *testing.T) {
	// Constructing a constant interns it (TestConstantsInternAtConstruction),
	// so the probe terms are built before the snapshot: what must not grow
	// the dictionary is the probe itself.
	sym, str := NewSym("never-interned-probe-sym-xyzzy"), NewStr("never-interned-probe-str-xyzzy")
	big := NewInt(1<<60 + 999_999_937)
	before := DictStats()
	for _, c := range []Term{sym, str} {
		id, ok := ProbeID(c)
		if want, _ := IDOf(c); !ok || id != want {
			t.Fatalf("ProbeID(%s) = %d,%v, want its construction-time ID %d", c, id, ok, want)
		}
	}
	if _, ok := ProbeID(big); ok {
		t.Fatal("ProbeID found a big int that was never interned")
	}
	if after := DictStats(); after != before {
		t.Fatalf("probing grew the dictionary: %+v -> %+v", before, after)
	}
	// After interning, the probe sees it.
	id, _ := IDOf(big)
	pid, ok := ProbeID(big)
	if !ok || pid != id {
		t.Fatalf("probe after intern = %d,%v, want %d", pid, ok, id)
	}
}

func TestConstantsInternAtConstruction(t *testing.T) {
	// A symbol or string carries its ID from its constructor: building
	// one adds its dictionary entry, and two values built alike are ==.
	before := DictStats()
	sym, str := NewSym("fresh-ctor-sym-plugh"), NewStr("fresh-ctor-str-plugh")
	after := DictStats()
	if after.Syms != before.Syms+1 || after.Strs != before.Strs+1 {
		t.Fatalf("constructing a symbol and a string: %+v -> %+v, want one entry each", before, after)
	}
	for _, c := range []Term{sym, str} {
		pid, ok := ProbeID(c)
		if id, _ := IDOf(c); !ok || pid == 0 || pid != id {
			t.Fatalf("ProbeID(%s) = %d,%v, IDOf %d: want the same non-zero ID", c, pid, ok, id)
		}
	}
	if sym != NewSym("fresh-ctor-sym-plugh") || str != NewStr("fresh-ctor-str-plugh") || EmptyList != NewSym("[]") {
		t.Fatal("constants built alike compare unequal")
	}
	if DictStats() != after {
		t.Fatal("rebuilding an interned constant grew the dictionary")
	}
}

func TestCompoundsInternAtConstruction(t *testing.T) {
	// A ground compound built by NewComp must be probe-visible without
	// any relation insert having happened.
	c := NewComp("fresh-ctor", NewSym("arg"), NewInt(3))
	pid, ok := ProbeID(c)
	if !ok || pid == 0 {
		t.Fatalf("ProbeID(ground compound) = %d,%v, want cached non-zero ID", pid, ok)
	}
	id, _ := IDOf(c)
	if pid != id {
		t.Fatalf("ProbeID %d != IDOf %d", pid, id)
	}
}

func TestConcurrentInterning(t *testing.T) {
	// Hammer one small key space from many goroutines: every goroutine
	// must agree on every ID (run under -race to check the table).
	const goroutines = 8
	const universe = 64
	results := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		results[g] = make([]ID, universe)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < universe; i++ {
				id, ok := IDOf(NewComp("cc", NewSym(fmt.Sprintf("s%d", i)), NewInt(int64(i))))
				if !ok {
					t.Errorf("IDOf not ok for %d", i)
					return
				}
				results[g][i] = id
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < universe; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw ID %d for key %d, goroutine 0 saw %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
}
