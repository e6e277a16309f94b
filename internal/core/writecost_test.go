package core

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// writeCostSizes are the database sizes, in parent tuples, a write's
// cost is measured at; writeCostWrites writes of writeCostBatch tuples
// are measured at each.
var writeCostSizes = []int{10_000, 40_000, 160_000}

const (
	writeCostWrites = 256
	writeCostBatch  = 16
	// maxWriteCostGrowth bounds bytes per write at the largest size over
	// bytes per write at the smallest: 16 times the tuples may cost at
	// most 1.5 times the bytes, so a write costs its batch. A write that
	// copies the relation it touches grows about 16 times, one that
	// copies O(√n) of it about 4 times.
	maxWriteCostGrowth = 1.5
)

// writeCostParents returns n parent tuples (child, parent), child i
// under parent i/2, in one batch.
func writeCostParents(n int) [][]term.Term {
	out := make([][]term.Term, n)
	for i := range out {
		out[i] = []term.Term{term.NewSym("c" + strconv.Itoa(i)), term.NewSym("c" + strconv.Itoa(i/2))}
	}
	return out
}

// writeCostBatchAt returns the w-th batch of new parent tuples written
// over a database of n, and the child of its last tuple.
func writeCostBatchAt(n, w int) ([][]term.Term, string) {
	out := make([][]term.Term, writeCostBatch)
	var kid string
	for i := range out {
		kid = "w" + strconv.Itoa(w*writeCostBatch+i)
		out[i] = []term.Term{term.NewSym(kid), term.NewSym("c" + strconv.Itoa((w*7919+i)%n))}
	}
	return out, kid
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestWriteCostSublinear: what a write allocates does not grow with the
// size of the database it writes to. Each row measures bytes per
// write at 10k, 40k and 160k parent tuples:
//
//   - load: writeCostWrites LoadTuples of writeCostBatch tuples;
//   - load+lookup: the same, each followed by a point lookup of the
//     tuple just written, which reads the written relation's index;
//   - replay: reopening a durable store holding writeCostWrites such
//     records past its snapshot, less reopening it at the snapshot.
//
// Batches, like the database, are built before the measurement.
func TestWriteCostSublinear(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	rows := []struct {
		name string
		// perWrite returns the bytes one write allocates over a
		// database of n parent tuples.
		perWrite func(t *testing.T, n int) float64
	}{
		{"load", func(t *testing.T, n int) float64 { return memWriteCost(t, n, false) }},
		{"load+lookup", func(t *testing.T, n int) float64 { return memWriteCost(t, n, true) }},
		{"replay", replayWriteCost},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			series := make([]float64, len(writeCostSizes))
			for i, n := range writeCostSizes {
				series[i] = row.perWrite(t, n)
			}
			report := ""
			for i, n := range writeCostSizes {
				report += fmt.Sprintf(" n=%d: %.0f B/write;", n, series[i])
			}
			growth := series[len(series)-1] / series[0]
			t.Logf("%s%s growth %.2fx", row.name, report, growth)
			if growth > maxWriteCostGrowth {
				t.Errorf("bytes per write grow %.2fx from n=%d to n=%d, want <= %.1fx:%s",
					growth, writeCostSizes[0], writeCostSizes[len(writeCostSizes)-1], maxWriteCostGrowth, report)
			}
		})
	}
}

// memWriteCost loads n parent tuples into an in-memory database and
// returns the bytes per write of writeCostWrites batches, each followed
// by a point lookup if lookup is set. One write (and lookup) before the
// measurement pays what the first read of the loaded database builds
// once.
func memWriteCost(t *testing.T, n int, lookup bool) float64 {
	db := NewDB()
	if err := db.LoadTuples("parent", writeCostParents(n)); err != nil {
		t.Fatal(err)
	}
	batches := make([][][]term.Term, writeCostWrites+1)
	queries := make([]string, writeCostWrites+1)
	for w := range batches {
		var kid string
		batches[w], kid = writeCostBatchAt(n, w)
		queries[w] = "?- parent(" + kid + ", P)."
	}
	write := func(w int) {
		if err := db.LoadTuples("parent", batches[w]); err != nil {
			t.Fatal(err)
		}
		if !lookup {
			return
		}
		q, err := lang.ParseQuery(queries[w])
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(q.Goals, Options{})
		if err != nil || len(res.Answers) != 1 {
			t.Fatalf("lookup after write %d: %v answers, error %v", w, res, err)
		}
	}
	write(0)
	bytes := allocatedBy(func() {
		for w := 1; w <= writeCostWrites; w++ {
			write(w)
		}
	})
	return float64(bytes) / writeCostWrites
}

// replayWriteCost returns the bytes per replayed record of reopening a
// durable store of n parent tuples, snapshotted, with writeCostWrites
// records past the snapshot: the reopen's bytes less those of reopening
// the same store before the records were written.
func replayWriteCost(t *testing.T, n int) float64 {
	dir := t.TempDir()
	opts := wal.Options{SnapshotEvery: -1, NoSync: true}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTuples("parent", writeCostParents(n)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopen := func() uint64 {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return allocatedBy(func() {
			if db, err = OpenDir(dir, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	atSnapshot := reopen()
	for w := range writeCostWrites {
		batch, _ := writeCostBatchAt(n, w)
		if err := db.LoadTuples("parent", batch); err != nil {
			t.Fatal(err)
		}
	}
	replayed := reopen()
	defer db.Close()
	if got, want := db.Generation(), uint64(1+writeCostWrites); got != want {
		t.Fatalf("reopened at generation %d, want %d", got, want)
	}
	return (float64(replayed) - float64(atSnapshot)) / writeCostWrites
}

// snapshotSizes are the database sizes, in parent tuples, a snapshot's
// cost is measured at.
var snapshotSizes = []int{10_000, 40_000, 160_000}

// maxSnapshotBytesPerFact bounds what a Checkpoint allocates per stored
// fact at the largest size: a quarter of the 350 B per fact this test
// measured for the encoder that copied the fact stream into a list and
// built the whole image in memory.
const maxSnapshotBytesPerFact = 350.0 / 4

// TestSnapshotBytesPerFact: a Checkpoint allocates the snapshot's
// dictionary and one exact-size row buffer, not a copy of the fact
// stream and the whole image. Each size loads n parent tuples and then
// a few small batches, so the relation spans several generations of
// one log, and measures one Checkpoint of the durable store.
func TestSnapshotBytesPerFact(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	report := ""
	var last float64
	for _, n := range snapshotSizes {
		db, err := OpenDir(t.TempDir(), wal.Options{SnapshotEvery: -1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadTuples("parent", writeCostParents(n)); err != nil {
			t.Fatal(err)
		}
		for w := range 4 {
			batch, _ := writeCostBatchAt(n, w)
			if err := db.LoadTuples("parent", batch); err != nil {
				t.Fatal(err)
			}
		}
		facts := n + 4*writeCostBatch
		var cerr error
		bytes := allocatedBy(func() { cerr = db.Checkpoint() })
		if cerr != nil {
			t.Fatal(cerr)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		last = float64(bytes) / float64(facts)
		report += fmt.Sprintf(" n=%d: %.1f B/fact;", n, last)
	}
	t.Logf("Checkpoint:%s", report)
	if last > maxSnapshotBytesPerFact {
		t.Errorf("Checkpoint allocates %.1f B per fact at n=%d, want <= %.1f:%s",
			last, snapshotSizes[len(snapshotSizes)-1], maxSnapshotBytesPerFact, report)
	}
}
