package chainsplit

// The fact-state golden: one fixed mutation sequence, and after each
// step the state every durable and replicated path is built from —
// the (generation, digest) pair, the snapshot image (rules text and
// fact rows in global order) and the Dump text. The final state must
// come back exactly from a WAL replay, from a checkpointed snapshot and
// from a follower bootstrapped off the shipped image; the store's file
// bytes are pinned too. Regenerate testdata/factstate.golden with
// `go test -run TestFactStateGolden -update .` (or `make golden`).

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/core"
	"chainsplit/internal/relation"
	"chainsplit/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/factstate.golden")

// factStep is one mutation of the golden sequence.
type factStep struct {
	name  string
	apply func(db *DB) error
}

var factSteps = []factStep{
	{"exec rules and facts with a duplicate", func(db *DB) error {
		return db.Exec(`
			@threshold split 4.
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- edge(X, Z), path(Z, Y).
			edge(a, b). edge(b, c). node(a). edge(a, b). edge(c, "d e").
		`)
	}},
	{"facts batch on edge", func(db *DB) error {
		return db.LoadFacts("edge", [][]Term{{Sym("c"), Sym("d")}, {Sym("d"), Sym("e")}, {Sym("c"), Sym("d")}})
	}},
	{"facts batch on node", func(db *DB) error {
		return db.LoadFacts("node", [][]Term{{Sym("b")}, {Int(7)}, {Sym("a")}})
	}},
	{"facts batch on edge again", func(db *DB) error {
		return db.LoadFacts("edge", [][]Term{{Sym("e"), Sym("f")}, {List(Int(1), Int(2)), Sym("g")}})
	}},
	{"facts batch on node again", func(db *DB) error {
		return db.LoadFacts("node", [][]Term{{Sym("c")}})
	}},
	{"batch of duplicates only", func(db *DB) error {
		return db.LoadFacts("edge", [][]Term{{Sym("a"), Sym("b")}, {Sym("e"), Sym("f")}})
	}},
	{"exec rules only", func(db *DB) error {
		return db.Exec(`reach(X) :- node(X).`)
	}},
}

// renderFactState renders a database's generation, digest, snapshot
// image and Dump text.
func renderFactState(inner *core.DB, dump string) string {
	var b strings.Builder
	gen, digest := inner.StateDigest()
	snap := inner.SnapshotImage()
	fmt.Fprintf(&b, "generation %d digest %016x snapshot-seq %d\n", gen, digest, snap.Seq)
	b.WriteString("-- snapshot rules\n")
	b.WriteString(snap.Rules)
	b.WriteString("-- snapshot facts\n")
	snap.Stream.Each(func(pred string, tup relation.Tuple) error {
		fmt.Fprintf(&b, "%s%s\n", pred, tup)
		return nil
	})
	b.WriteString("-- dump\n")
	b.WriteString(dump)
	return b.String()
}

// storeFiles renders the name and SHA-256 of every log segment and
// snapshot file in a durable store's directory.
func storeFiles(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".log") || strings.HasSuffix(n, ".csdb") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", n, sha256.Sum256(data))
	}
	return b.String()
}

func TestFactStateGolden(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWith(Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	var last string
	for i, s := range factSteps {
		if err := s.apply(db); err != nil {
			t.Fatalf("step %d (%s): %v", i+1, s.name, err)
		}
		last = renderFactState(db.inner, db.Dump())
		fmt.Fprintf(&all, "=== step %d: %s\n%s", i+1, s.name, last)
	}
	fmt.Fprintf(&all, "=== store after the sequence\n%s", storeFiles(t, dir))

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFactState(replayed.inner, replayed.Dump()); got != last {
		t.Errorf("WAL replay does not reproduce the last step:\n%s\nwant:\n%s", got, last)
	}
	if err := replayed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&all, "=== store after Checkpoint\n%s", storeFiles(t, dir))

	restored, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFactState(restored.inner, restored.Dump()); got != last {
		t.Errorf("snapshot restore does not reproduce the last step:\n%s\nwant:\n%s", got, last)
	}
	follower := core.NewFollower()
	if err := follower.BootstrapReplica(restored.inner.SnapshotImage()); err != nil {
		t.Fatal(err)
	}
	if got := renderFactState(follower, follower.Dump()); got != last {
		t.Errorf("follower bootstrap does not reproduce the last step:\n%s\nwant:\n%s", got, last)
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "factstate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("fact state diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// TestFactArityMismatchRejected: a fact whose arity disagrees with its
// relation is refused with an ordinary error — never a panic — on every
// path a fact enters by, and the database keeps its generation.
func TestFactArityMismatchRejected(t *testing.T) {
	rejected := func(t *testing.T, db *DB, src string, gen uint64, dump string) {
		t.Helper()
		err := db.Exec(src)
		if err == nil || errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("Exec(%q) = %v, want an arity error", src, err)
		}
		if db.Generation() != gen || db.Dump() != dump {
			t.Fatalf("rejected Exec(%q) changed the database: generation %d, dump\n%s", src, db.Generation(), db.Dump())
		}
	}

	t.Run("two Execs", func(t *testing.T) {
		db := Open()
		mustExec(t, db, "e(1).")
		rejected(t, db, "e(1, 2).", 1, "e(1).\n")
	})
	t.Run("one Exec", func(t *testing.T) {
		rejected(t, Open(), "e(1). e(1, 2).", 0, "")
	})
	t.Run("ApplyReplica", func(t *testing.T) {
		f := core.NewFollower()
		if err := f.ApplyReplica(wal.Record{Seq: 1, Type: wal.RecExec, Src: "e(1).\n"}); err != nil {
			t.Fatal(err)
		}
		gen, digest := f.StateDigest()
		err := f.ApplyReplica(wal.Record{Seq: 2, Type: wal.RecExec, Src: "e(1, 2).\n"})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ApplyReplica of a mismatched fact = %v, want ErrCorrupt", err)
		}
		if g, d := f.StateDigest(); g != gen || d != digest {
			t.Fatalf("rejected record moved the follower from (%d, %016x) to (%d, %016x)", gen, digest, g, d)
		}
	})
}
