package wal

// Tail is a live, read-only reader of a store directory owned by
// another component in the same process: the replication leader tails
// its own store's files to ship records to followers without touching
// Store's single-writer state. A Tail tolerates everything a live
// writer does concurrently — in-flight appends (a partial frame at
// the end of the segment is "not yet", not corruption), segment
// rotation at checkpoints, and pruning (the open file descriptor
// keeps a pruned segment readable until the Tail is done with it).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrTailLost reports that a tail position precedes the store's
// retained history: a checkpoint pruned the segments that held the
// records after that position. The caller must restart from a full
// snapshot instead of the log.
var ErrTailLost = errors.New("wal: tail position precedes retained history")

// Tail reads records after a fixed position from a live store
// directory. Methods are not goroutine-safe; the replication leader
// gives each follower connection its own Tail.
type Tail struct {
	dir string
	pos uint64 // last seq handed to the caller

	f        *os.File
	segStart uint64
	off      int64 // next unread byte in the segment
	dict     *DecDict
	run      seqRun // the order rule over the current segment
	closed   bool
}

// OpenTail positions a tail just after generation after in dir. The
// records after that position must still be retained: if the oldest
// segment starts past it, OpenTail fails with ErrTailLost.
func OpenTail(dir string, after uint64) (*Tail, error) {
	t := &Tail{dir: dir, pos: after}
	if err := t.openSegment(); err != nil {
		return nil, err
	}
	return t, nil
}

// openSegment opens the segment covering records pos+1… — the one
// with the greatest start ≤ pos — and rewinds to its beginning so the
// segment-local dictionary can be rebuilt. Records at or before pos
// are decoded for their dictionary deltas but not redelivered.
func (t *Tail) openSegment() error {
	_, segs, err := scanDir(t.dir)
	if err != nil {
		return err
	}
	best, found := uint64(0), false
	for _, s := range segs {
		if s <= t.pos && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		if len(segs) == 0 && t.pos == 0 {
			// A store that has never checkpointed writes its first
			// segment lazily; an empty directory at position 0 just
			// means nothing to read yet.
			return nil
		}
		return fmt.Errorf("%w: position %d, oldest segment %v", ErrTailLost, t.pos, segs)
	}
	f, err := os.Open(filepath.Join(t.dir, segName(best)))
	if err != nil {
		return err
	}
	t.attach(f, best)
	return nil
}

// Poll returns the records appended since the last Poll, possibly
// none. It never blocks on future writes: a partial frame at the end
// of the live segment (an append in flight) is left for the next
// Poll. A decode failure, checksum mismatch on a settled frame, or
// generation discontinuity is returned as an ErrCorrupt match; a
// pruned-away position is ErrTailLost.
func (t *Tail) Poll() ([]Record, error) {
	if t.closed {
		return nil, errors.New("wal: tail is closed")
	}
	var out []Record
	for {
		if t.f == nil {
			// Lazily attach once the first segment appears.
			if err := t.openSegment(); err != nil {
				return out, err
			}
			if t.f == nil {
				return out, nil
			}
		}
		recs, settled, err := t.readAvailable()
		out = append(out, recs...)
		if err != nil {
			return out, err
		}
		if !settled {
			return out, nil
		}
		// The segment is drained. If the writer has rotated past it —
		// a newer segment starts at or before our position — switch;
		// otherwise the current segment is still the live one.
		_, segs, err := scanDir(t.dir)
		if err != nil {
			return out, err
		}
		next, found := uint64(0), false
		for _, s := range segs {
			if s > t.segStart && s <= t.pos && (!found || s < next) {
				next, found = s, true
			}
		}
		if !found {
			return out, nil
		}
		f, err := os.Open(filepath.Join(t.dir, segName(next)))
		if err != nil {
			return out, err
		}
		t.f.Close()
		t.attach(f, next)
	}
}

// attach makes f, the segment starting at start, the one the tail
// reads, from its first byte.
func (t *Tail) attach(f *os.File, start uint64) {
	t.f, t.segStart, t.off, t.dict, t.run = f, start, 0, NewDecDict(), seqRun{}
}

// readAvailable decodes the whole frames currently readable past t.off
// and delivers the records past t.pos. settled reports that the
// segment ends on a frame boundary — the precondition for considering
// a rotation. A partial final frame, or one whose checksum does not
// match yet, is an append in flight: its bytes may not all be visible
// (a concurrent write is not atomic against readers), so it is left
// for the next Poll. A zero-filled tail can only be a crash artifact
// the writer would have truncated on recovery, so it is reported
// rather than waited on.
func (t *Tail) readAvailable() (out []Record, settled bool, err error) {
	fi, err := t.f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size <= t.off {
		return nil, true, nil
	}
	data := make([]byte, size-t.off)
	if _, err := t.f.ReadAt(data, t.off); err != nil {
		return nil, false, err
	}
	recs, end, tail, err := scanSegment(data, t.dict)
	if err == nil && tail == tailZeros {
		err = corruptf("zero-filled frame at offset %d", end)
	}
	for _, rec := range recs {
		if oerr := t.run.next(t.segStart, rec.Seq); oerr != nil {
			err = oerr
			break
		}
		if rec.Seq <= t.pos {
			continue // delivered before; read again for its dictionary deltas
		}
		if rec.Seq != t.pos+1 {
			err = corruptf("generation gap: record seq %d after %d", rec.Seq, t.pos)
			break
		}
		t.pos = rec.Seq
		out = append(out, rec)
	}
	if err != nil {
		return out, false, fmt.Errorf("tail: %s past offset %d: %w", segName(t.segStart), t.off, err)
	}
	t.off += int64(end)
	return out, tail == tailNone, nil
}

// Close releases the tail's file descriptor.
func (t *Tail) Close() error {
	t.closed = true
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Bootstrap re-seeds dir as a fresh store holding exactly snap: every
// existing store file is removed, the snapshot is written atomically,
// and the store is opened at generation snap.Seq. The replication
// follower uses it when its position has left the leader's retained
// history (ErrTailLost) and a full snapshot was shipped instead.
func Bootstrap(dir string, snap *Snapshot, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snaps, segs, tmps, err := scanDirTmp(dir)
	if err != nil {
		return nil, err
	}
	for _, v := range snaps {
		if err := os.Remove(filepath.Join(dir, snapName(v))); err != nil {
			return nil, err
		}
	}
	for _, v := range segs {
		if err := os.Remove(filepath.Join(dir, segName(v))); err != nil {
			return nil, err
		}
	}
	for _, name := range tmps {
		os.Remove(filepath.Join(dir, name))
	}
	if err := writeSnapshotFile(dir, snap); err != nil {
		return nil, err
	}
	s, _, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if s.LastSeq() != snap.Seq {
		s.Close()
		return nil, corruptf("bootstrap recovered to %d, want %d", s.LastSeq(), snap.Seq)
	}
	return s, nil
}
