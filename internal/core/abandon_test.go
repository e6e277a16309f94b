package core

// Abandoned builds: a write that fails after its generation's build has
// appended to a relation's shared log must leave the published
// generation, and every reader pinned to it, reading exactly what it
// read; the next write must succeed (copying the relation's prefix off
// the abandoned positions) and recover identically.

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/lang"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// abandonState is what a failed write must not change.
type abandonState struct {
	seq, digest uint64
	len         int
	answers     string
}

// abandonQueries read the whole relation, through its index one key
// the fixture holds and one the abandoned batches write, and whether
// it holds a tuple of the abandoned batches.
var abandonQueries = []string{"?- parent(X, Y).", "?- parent(c7, P).", "?- parent(Kid, c3).", "?- parent(bad3, c3)."}

// stateOf reads g's abandonState.
func stateOf(t *testing.T, g *generation) abandonState {
	t.Helper()
	s := abandonState{seq: g.seq, digest: g.digest}
	if rel := g.cat.Get("parent"); rel != nil {
		s.len = rel.Len()
	}
	for _, src := range abandonQueries {
		q, err := lang.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Query(q.Goals, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		s.answers += fmt.Sprint(res.Answers) + "\n"
	}
	return s
}

// abandonBatch returns n parent tuples of fresh children under c3.
func abandonBatch(prefix string, n int) [][]term.Term {
	out := make([][]term.Term, n)
	for i := range out {
		out[i] = []term.Term{term.NewSym(prefix + strconv.Itoa(i)), term.NewSym("c3")}
	}
	return out
}

// TestAbandonedBuild abandons a build two ways on a durable database —
// a batch whose last tuple is non-ground or of the wrong arity, and a
// batch whose log append fails — after the build has appended the
// batch's good tuples to the shared log. Each time the published
// generation's length, answers and StateDigest stay as they were, as
// do those of a reader pinned before the failure, and the next write
// succeeds, is visible, and recovers identically after Close/OpenDir.
// The next write is the abandoned batch's good tuples again, which the
// published generation does not hold.
func TestAbandonedBuild(t *testing.T) {
	cases := []struct {
		name string
		// fail makes one write fail after its build appended tuples.
		fail func(db *DB) error
		// sticky is set when the failure leaves the store refusing
		// writes until it is reopened (a failed log append).
		sticky bool
	}{
		{"non-ground last tuple", func(db *DB) error {
			batch := append(abandonBatch("bad", 16), []term.Term{term.NewSym("x"), term.NewVar("Y")})
			return db.LoadTuples("parent", batch)
		}, false},
		{"wrong-arity last tuple", func(db *DB) error {
			batch := append(abandonBatch("bad", 16), []term.Term{term.NewSym("x")})
			return db.LoadTuples("parent", batch)
		}, false},
		{"log append fault", func(db *DB) error {
			defer faultinject.SetData(faultinject.SiteWALAppend, func([]byte) ([]byte, error) {
				return nil, errors.New("injected append fault")
			})()
			return db.LoadTuples("parent", abandonBatch("bad", 16))
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := wal.Options{SnapshotEvery: -1, NoSync: true}
			db, err := OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.LoadTuples("parent", writeCostParents(500)); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadTuples("parent", abandonBatch("w", 4)); err != nil {
				t.Fatal(err)
			}
			pinned := db.current()
			before := stateOf(t, pinned) // builds the indexes the build files into
			if err := tc.fail(db); err == nil {
				t.Fatal("the write did not fail")
			}
			if db.current() != pinned {
				t.Fatal("a failed write published a generation")
			}
			if got := stateOf(t, db.current()); got != before {
				t.Fatalf("published generation changed by a failed write:\n%+v\nwant\n%+v", got, before)
			}
			if gen, dig := db.StateDigest(); gen != before.seq || dig != before.digest {
				t.Fatalf("StateDigest (%d, %x), want (%d, %x)", gen, dig, before.seq, before.digest)
			}
			if tc.sticky {
				if err := db.LoadTuples("parent", abandonBatch("bad", 16)); err == nil {
					t.Fatal("a write after a failed log append succeeded on the same store")
				}
				db.Close() // the store's sticky error may surface here
				if db, err = OpenDir(dir, opts); err != nil {
					t.Fatal(err)
				}
				if got := stateOf(t, db.current()); got != before {
					t.Fatalf("reopened after the failed append:\n%+v\nwant\n%+v", got, before)
				}
			}
			if err := db.LoadTuples("parent", abandonBatch("bad", 16)); err != nil {
				t.Fatalf("the write after the abandoned build: %v", err)
			}
			after := stateOf(t, db.current())
			if after.seq != before.seq+1 || after.len != before.len+16 || after.answers == before.answers {
				t.Fatalf("the next write is not visible: generation %d, %d tuples after generation %d, %d tuples",
					after.seq, after.len, before.seq, before.len)
			}
			if got := stateOf(t, pinned); got != before {
				t.Fatalf("the reader pinned before the failure now reads:\n%+v\nwant\n%+v", got, before)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = OpenDir(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := stateOf(t, db.current()); got != after {
				t.Fatalf("recovered:\n%+v\nwant\n%+v", got, after)
			}
		})
	}
}
