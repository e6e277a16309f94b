package core

// Durable databases: the glue between the copy-on-write generation
// machinery and the write-ahead log (internal/wal).
//
// The invariant is publish-after-log: a mutation's WAL record is
// framed, checksummed and fsynced before the generation carrying it is
// installed, so the durable log is always at or ahead of the published
// state and recovery can only ever land on a generation some caller
// was told exists. Replay goes back through the very same generation
// builders Load and LoadTuples use (with logging disabled), which is
// what makes recovered databases bit-identical to the originals:
// rectification, duplicate-fact suppression, relation insertion order
// and the fact-order record are all reproduced by construction rather
// than re-implemented.

import (
	"fmt"
	"strings"

	"chainsplit/internal/lang"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/wal"
)

// OpenDir opens (or creates) a durable database rooted at dir,
// recovering the last durable generation: the latest valid snapshot
// plus a replay of the contiguous WAL suffix past it. A torn tail —
// the unfinished append a crash leaves — is dropped; any other
// inconsistency refuses to open with an error matching wal.ErrCorrupt.
func OpenDir(dir string, opts wal.Options) (*DB, error) {
	store, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	db := NewDB()
	if rec.Snapshot != nil {
		if err := db.applySnapshot(rec.Snapshot); err != nil {
			store.Close()
			return nil, err
		}
	}
	for _, r := range rec.Records {
		if err := db.applyRecord(r); err != nil {
			store.Close()
			return nil, err
		}
	}
	if got := db.Generation(); got != rec.LastSeq {
		store.Close()
		return nil, fmt.Errorf("%w: replay reached generation %d, log promises %d", wal.ErrCorrupt, got, rec.LastSeq)
	}
	// Epoch state recovers alongside the data: a database fenced before
	// the crash reopens fenced — read-only in the epoch it was deposed
	// from — and a promoted one reopens under its bumped epoch.
	est, err := wal.ReadEpochState(dir)
	if err != nil {
		store.Close()
		return nil, err
	}
	// Installed before the store is attached: the file already holds it.
	db.setState(func(NodeState) NodeState { return NodeState{EpochState: est} })
	db.writeMu.Lock()
	db.store = store
	db.writeMu.Unlock()
	return db, nil
}

// applySnapshot installs a compacted snapshot as one generation with
// the snapshot's sequence number (see genFromSnapshot).
func (db *DB) applySnapshot(snap *wal.Snapshot) error {
	next, err := genFromSnapshot(snap)
	if err != nil {
		return err
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if cur := db.current(); cur.seq != 0 {
		return fmt.Errorf("core: snapshot applied to a non-empty database (generation %d)", cur.seq)
	}
	db.publish(next)
	return nil
}

// genFromSnapshot builds a from-scratch generation holding exactly the
// snapshot's state, at the snapshot's sequence number. Rules and
// pragmas come back through the parser; the fact stream is applied in
// its original global order, which reproduces every relation's
// insertion order, the order record and — re-folded in the original
// accumulation order — the digest.
func genFromSnapshot(snap *wal.Snapshot) (*generation, error) {
	next := newGeneration(snap.Seq)
	if strings.TrimSpace(snap.Rules) != "" {
		res, err := lang.Parse(snap.Rules)
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot rules do not parse: %v", wal.ErrCorrupt, err)
		}
		next.addRules(res.Program)
	}
	if snap.Stream == nil {
		return next, nil
	}
	var scratch []byte
	err := snap.Stream.Each(func(pred string, tup relation.Tuple) error {
		if err := next.addFact(pred, tup, &scratch); err != nil {
			return fmt.Errorf("%w: snapshot fact rejected: %v", wal.ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// buildRecordGen builds (but does not publish) the generation that
// applies one logged or shipped record through the ordinary build
// paths. A record whose sequence is not the next generation's, that
// does not parse, or that the build rejects is corrupt. Callers hold
// writeMu.
func (db *DB) buildRecordGen(r wal.Record) (*generation, error) {
	if cur := db.current().seq; r.Seq != cur+1 {
		return nil, fmt.Errorf("%w: record %d does not follow generation %d", wal.ErrCorrupt, r.Seq, cur)
	}
	var next *generation
	var err error
	switch r.Type {
	case wal.RecExec:
		res, perr := lang.Parse(r.Src)
		if perr != nil {
			return nil, fmt.Errorf("%w: record %d program does not parse: %v", wal.ErrCorrupt, r.Seq, perr)
		}
		next, err = db.buildProgramGen(res.Program)
	case wal.RecFacts:
		tuples := make([][]term.Term, len(r.Tuples))
		for i, t := range r.Tuples {
			tuples[i] = []term.Term(t)
		}
		next, err = db.buildTuplesGen(r.Pred, tuples)
	default:
		return nil, fmt.Errorf("%w: record %d has unknown type %d", wal.ErrCorrupt, r.Seq, r.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: record %d rejected: %v", wal.ErrCorrupt, r.Seq, err)
	}
	return next, nil
}

// applyRecord replays one WAL record during recovery. db.store is
// still nil, so nothing is re-logged.
func (db *DB) applyRecord(r wal.Record) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	next, err := db.buildRecordGen(r)
	if err != nil {
		return err
	}
	db.publish(next)
	return nil
}

// snapshotOf renders a generation as a compacted snapshot: the
// accumulated rules and pragmas as parseable source, and a view of the
// fact stream that walks the catalog along the order record,
// preserving global order. Nothing is copied: the generation is
// immutable once published, and the encoder reads the facts in place.
func snapshotOf(g *generation) *wal.Snapshot {
	return &wal.Snapshot{Seq: g.seq, Rules: g.source.String(), Stream: genFacts{g}}
}

// genFacts is a generation's fact stream (wal.FactStream).
type genFacts struct{ g *generation }

func (s genFacts) Runs(fn func(pred string, arity, n int)) {
	for _, run := range s.g.order {
		fn(run.pred, s.g.cat.Get(run.pred).Arity(), run.n)
	}
}

func (s genFacts) Each(fn func(pred string, tup relation.Tuple) error) (err error) {
	s.g.eachFact(func(pred string, tup relation.Tuple) {
		if err == nil {
			err = fn(pred, tup)
		}
	})
	return err
}

// maybeSnapshotLocked compacts if the store's cadence says one is due.
// Best-effort: the log remains authoritative, so a failed automatic
// compaction costs replay time on the next open, never data. Callers
// hold writeMu.
func (db *DB) maybeSnapshotLocked(g *generation) {
	if db.store == nil || !db.store.SnapshotDue() {
		return
	}
	_ = db.store.WriteSnapshot(snapshotOf(g))
}

// DurableDir returns the directory of the database's durable store,
// "" for an in-memory database.
func (db *DB) DurableDir() string {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.store == nil {
		return ""
	}
	return db.store.Dir()
}

// SnapshotImage renders the current generation as a compacted
// snapshot without touching the store — the leader ships it to
// bootstrap a follower whose position left retained history. The
// generation is immutable once published, so no lock is needed.
func (db *DB) SnapshotImage() *wal.Snapshot { return snapshotOf(db.current()) }

// Checkpoint writes a compacted snapshot of the current generation and
// prunes the log history it supersedes. A no-op without a durable
// store.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.store == nil {
		return nil
	}
	return db.store.WriteSnapshot(snapshotOf(db.current()))
}

// Close flushes and closes the durable store. Queries against already
// pinned generations keep working; further mutations on a durable
// database fail. A no-op without a durable store.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.store == nil {
		return nil
	}
	// The store stays attached after Close: its methods report
	// "store is closed", so later mutations fail loudly instead of
	// silently downgrading to in-memory.
	return db.store.Close()
}
