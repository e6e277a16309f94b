package core

// Regression tests for duplicate-fact accumulation: re-loading a
// program (or a fact batch) whose tuples are already present must grow
// neither the relation nor the fact-order record, or snapshots, Dump
// and the digest would repeat facts across re-loads.

import (
	"strings"
	"sync"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// factCounts returns the tuple count of relation pred and the number
// of facts the current generation's order record holds.
func factCounts(db *DB, pred string) (rel, order int) {
	g := db.current()
	if r := g.cat.Get(pred); r != nil {
		rel = r.Len()
	}
	for _, run := range g.order {
		order += run.n
	}
	return rel, order
}

func TestReloadDoesNotAccumulateFacts(t *testing.T) {
	db := NewDB()
	src := "p(X) :- e(X).\ne(1). e(2). e(3)."
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(res.Program); err != nil {
		t.Fatal(err)
	}
	rel1, ord1 := factCounts(db, "e")
	if rel1 != 3 || ord1 != 3 {
		t.Fatalf("first load: %d/%d facts, want 3/3", rel1, ord1)
	}
	ans1 := ask(t, db, "?- p(X).", Options{})

	// The whole program again: every fact is a duplicate. Rules do
	// accumulate (Load is additive for rules), but facts must not.
	res2, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(res2.Program); err != nil {
		t.Fatal(err)
	}
	rel2, ord2 := factCounts(db, "e")
	if rel2 != rel1 || ord2 != ord1 {
		t.Fatalf("re-load grew facts: %d/%d, want %d/%d", rel2, ord2, rel1, ord1)
	}
	ans2 := ask(t, db, "?- p(X).", Options{})
	if len(ans2.Answers) != len(ans1.Answers) {
		t.Fatalf("answers changed after idempotent re-load: %d, want %d", len(ans2.Answers), len(ans1.Answers))
	}
}

func TestLoadTuplesDeduplicates(t *testing.T) {
	db := NewDB()
	batch := [][]term.Term{
		{term.NewSym("a"), term.NewInt(1)},
		{term.NewSym("b"), term.NewInt(2)},
		{term.NewSym("a"), term.NewInt(1)}, // duplicate inside one batch
	}
	if err := db.LoadTuples("edge", batch); err != nil {
		t.Fatal(err)
	}
	rel1, ord1 := factCounts(db, "edge")
	if rel1 != 2 || ord1 != 2 {
		t.Fatalf("batch with an internal duplicate: %d/%d facts, want 2/2", rel1, ord1)
	}

	// The same batch again: fully idempotent.
	if err := db.LoadTuples("edge", batch); err != nil {
		t.Fatal(err)
	}
	rel2, ord2 := factCounts(db, "edge")
	if rel2 != 2 || ord2 != 2 {
		t.Fatalf("re-load of the same batch grew facts: %d/%d, want 2/2", rel2, ord2)
	}

	// A mixed batch: only the genuinely new tuple lands.
	if err := db.LoadTuples("edge", [][]term.Term{
		{term.NewSym("a"), term.NewInt(1)},
		{term.NewSym("c"), term.NewInt(3)},
	}); err != nil {
		t.Fatal(err)
	}
	rel3, ord3 := factCounts(db, "edge")
	if rel3 != 3 || ord3 != 3 {
		t.Fatalf("mixed batch: %d/%d facts, want 3/3", rel3, ord3)
	}
}

// factStream renders a generation's fact stream, one "pred(args) " per
// fact, walked along its order record.
func factStream(g *generation) string {
	var b strings.Builder
	g.eachFact(func(pred string, tup relation.Tuple) { b.WriteString(pred + tup.String() + " ") })
	return b.String()
}

// TestOrderRecordSharedAcrossGenerations: generations share the order
// record's backing array, so every pinned generation must keep
// rendering exactly the fact stream it had — through later writes to
// the same predicate and through rejected batches that wrote past its
// prefix before failing.
func TestOrderRecordSharedAcrossGenerations(t *testing.T) {
	db := NewDB()
	render := factStream
	var pinned []*generation
	var seen []string
	for i := int64(0); i < 24; i++ {
		pred := []string{"n", "n", "m"}[i%3]
		if err := db.LoadTuples(pred, [][]term.Term{{term.NewInt(i)}, {term.NewInt(i + 100)}}); err != nil {
			t.Fatal(err)
		}
		// Rejected: its first tuple lands in the discarded generation
		// before the second fails the arity check.
		if err := db.LoadTuples(pred, [][]term.Term{{term.NewInt(-i)}, {term.NewInt(1), term.NewInt(2)}}); err == nil {
			t.Fatal("mixed-arity batch accepted")
		}
		pinned = append(pinned, db.current())
		seen = append(seen, render(db.current()))
	}
	for i, g := range pinned {
		if got := render(g); got != seen[i] {
			t.Fatalf("generation %d's fact stream changed after later writes:\n got: %s\nwant: %s", g.seq, got, seen[i])
		}
	}
	if last := pinned[len(pinned)-1]; len(last.order) != 24 {
		t.Fatalf("order record has %d runs, want one per write (24)", len(last.order))
	}
}

// TestOrderRecordConcurrentReaders: readers walking pinned generations
// while a writer appends past their prefixes, and discards rejected
// builds, see each generation's fact stream whole and unchanging.
// Meaningful under -race.
func TestOrderRecordConcurrentReaders(t *testing.T) {
	db := NewDB()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := db.current()
				first := factStream(g)
				// One fact per published generation.
				if got := uint64(strings.Count(first, " ")); got != g.seq {
					t.Errorf("generation %d streams %d facts, want %d", g.seq, got, g.seq)
					return
				}
				if again := factStream(g); again != first {
					t.Errorf("generation %d's fact stream changed under a reader", g.seq)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 300; i++ {
		pred := []string{"n", "m"}[i%2]
		if err := db.LoadTuples(pred, [][]term.Term{{term.NewInt(i)}}); err != nil {
			t.Error(err)
			break
		}
		if err := db.LoadTuples(pred, [][]term.Term{{term.NewInt(-i)}, {term.NewInt(1), term.NewInt(2)}}); err == nil {
			t.Error("mixed-arity batch accepted")
			break
		}
	}
	close(stop)
	wg.Wait()
}
