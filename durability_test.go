package chainsplit

// Durability suite: close/reopen round trips must reproduce the exact
// pre-close state — same generation number, bit-identical answers for
// every workload × strategy in the determinism matrix — and generation
// numbers must be monotonic across any number of recovery cycles.

import (
	"errors"
	"path/filepath"
	"testing"

	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// durableDetDB is detDB on a durable store.
func durableDetDB(t *testing.T, c detCase, dir string) *core.DB {
	t.Helper()
	db, err := core.OpenDir(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadDet(t, db, c)
	return db
}

func loadDet(t *testing.T, db *core.DB, c detCase) {
	t.Helper()
	res, err := lang.Parse(c.rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(res.Program); err != nil {
		t.Fatal(err)
	}
	if c.facts != nil {
		if err := db.Load(c.facts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRoundTripAcrossStrategies closes and reopens each
// determinism workload, on a log-only store and on one that snapshots
// after every record, and requires every strategy to reproduce its
// pre-close answers and metrics bit-identically from the recovered
// state.
func TestDurableRoundTripAcrossStrategies(t *testing.T) {
	for _, c := range detCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, every := range []int{-1, 1} {
				durableRoundTrip(t, c, wal.Options{SnapshotEvery: every})
			}
		})
	}
}

// durableRoundTrip is one TestDurableRoundTripAcrossStrategies run on
// a store with the given options.
func durableRoundTrip(t *testing.T, c detCase, wopts wal.Options) {
	t.Helper()
	dir := t.TempDir()
	db, err := core.OpenDir(dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	loadDet(t, db, c)
	opts := func(s core.Strategy) core.Options {
		return core.Options{Strategy: s, MaxTuples: 200_000, MaxIterations: 10_000}
	}
	type outcome struct {
		answers string
		tuples  int
		err     string
	}
	before := make(map[core.Strategy]outcome)
	for _, strat := range detStrategies {
		res, err := db.Query(c.goals, opts(strat))
		if err != nil {
			before[strat] = outcome{err: err.Error()}
			continue
		}
		before[strat] = outcome{answers: renderSorted(res), tuples: res.Metrics.DerivedTuples}
	}
	wantGen := db.Generation()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := core.OpenDir(dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Generation(); got != wantGen {
		t.Fatalf("snapshot every %d: recovered generation %d, want %d", wopts.SnapshotEvery, got, wantGen)
	}
	for _, strat := range detStrategies {
		res, err := db2.Query(c.goals, opts(strat))
		var got outcome
		if err != nil {
			got = outcome{err: err.Error()}
		} else {
			got = outcome{answers: renderSorted(res), tuples: res.Metrics.DerivedTuples}
		}
		if got != before[strat] {
			t.Fatalf("snapshot every %d: %s diverges after recovery:\n got %+v\nwant %+v", wopts.SnapshotEvery, strat, got, before[strat])
		}
	}
}

// TestGenerationMonotonicAcrossRecovery runs several mutate → close →
// reopen cycles and requires Metrics.Generation to be strictly
// monotonic: recovery lands on exactly the last durable generation and
// new mutations continue from it, never reset.
func TestGenerationMonotonicAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	c := detCases(t)[0] // sg
	db := durableDetDB(t, c, dir)
	res, err := db.Query(c.goals, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lastGen := res.Metrics.Generation
	if lastGen == 0 {
		t.Fatal("no generations published")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		db, err := core.OpenDir(dir, wal.Options{})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got := db.Generation(); got != lastGen {
			t.Fatalf("cycle %d: recovered generation %d, want %d", cycle, got, lastGen)
		}
		// One more mutation per cycle: the generation must advance by
		// exactly one past the recovered value.
		if err := db.Load(&program.Program{Facts: []program.Atom{
			program.NewAtom("cycle_mark", term.NewInt(int64(cycle))),
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(c.goals, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Generation != lastGen+1 {
			t.Fatalf("cycle %d: generation %d after one mutation, want %d", cycle, res.Metrics.Generation, lastGen+1)
		}
		lastGen = res.Metrics.Generation
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublicDurableAPI drives durability through the public surface:
// OpenDir/Config.Dir, Exec/LoadFacts, Checkpoint, Close, reopen,
// ErrCorrupt on a damaged store.
func TestPublicDurableAPI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).")
	if err := db.LoadFacts("edge", [][]Term{
		{Sym("a"), Sym("b")}, {Sym("b"), Sym("c")}, {Sym("c"), Sym("d")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d answers, want 3", len(res.Rows))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadFacts("edge", [][]Term{{Sym("d"), Sym("e")}}); err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Mutating a closed durable database must fail loudly.
	if err := db.Exec("edge(x, y)."); err == nil {
		t.Fatal("Exec on a closed durable database succeeded")
	}

	db2, err := OpenWith(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Generation() != gen {
		t.Fatalf("recovered generation %d, want %d", db2.Generation(), gen)
	}
	res2, err := db2.Query("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 4 {
		t.Fatalf("%d answers after recovery, want 4", len(res2.Rows))
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the store: the open must match ErrCorrupt, and Fsck must
	// report the damage.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	flipByteInLastRecord(t, segs[len(segs)-1])
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of damaged store: %v, want ErrCorrupt", err)
	}
	report, ok, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("fsck called the damaged store clean:\n%s", report)
	}
}
