package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
	"chainsplit/internal/term"
)

// Options configures a Store.
type Options struct {
	// SnapshotEvery is the number of appended records between
	// automatic compactions. 0 means the default (256); negative
	// disables automatic snapshots (explicit checkpoints still work).
	SnapshotEvery int
	// NoSync skips the per-append fsync (benchmarks; crash safety is
	// forfeit).
	NoSync bool
}

// defaultSnapshotEvery is the compaction cadence when Options leaves
// it zero.
const defaultSnapshotEvery = 256

// Recovery is what Open found on disk: the base snapshot (nil for a
// fresh or snapshot-less store), the contiguous record suffix to
// replay on top of it, and whether a torn tail was truncated.
type Recovery struct {
	Snapshot *Snapshot
	Records  []Record
	// TornTail reports that the last segment ended in an unfinished
	// append, which Open dropped and truncated away.
	TornTail bool
	// LastSeq is the generation the store recovers to.
	LastSeq uint64
}

// Store is an open durable store: one active log segment plus the
// snapshot/segment history in its directory. Methods are not
// goroutine-safe; the database layer serializes mutations already
// (writeMu), and the store inherits that discipline.
type Store struct {
	dir  string
	opts Options

	f        *os.File
	segStart uint64
	dict     *EncDict
	lastSeq  uint64

	sinceSnap int
	// err is sticky: once an append fails the store's tail state is
	// unknowable, so every later mutation is refused (fail-stop
	// durability) rather than risking a gap in the log.
	err error
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".csdb"
	tmpSuffix  = ".tmp"
)

func segName(start uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix) }
func snapName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listDir returns the snapshot seqs and segment start seqs present in
// dir, each sorted ascending, removing leftover .tmp files from
// crashed snapshot writes along the way. Only the store's owner (Open,
// WriteSnapshot) may call it; read-only observers — fsck, replication
// tails — use scanDir, which must not race a live store's in-flight
// snapshot temp file away.
func listDir(dir string) (snaps, segs []uint64, err error) {
	snaps, segs, tmps, err := scanDirTmp(dir)
	for _, name := range tmps {
		// A crashed snapshot write; it never became visible.
		os.Remove(filepath.Join(dir, name))
	}
	return snaps, segs, err
}

// scanDir is the read-only variant of listDir: same listing, no
// cleanup side effects.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	snaps, segs, _, err = scanDirTmp(dir)
	return snaps, segs, err
}

func scanDirTmp(dir string) (snaps, segs []uint64, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, v)
		} else if strings.HasSuffix(e.Name(), tmpSuffix) {
			tmps = append(tmps, e.Name())
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, tmps, nil
}

// readDurable reads a whole file, passing the bytes through the
// wal.read fault site so tests can inject short reads and bit flips.
func readDurable(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return faultinject.FireData(faultinject.SiteWALRead, data)
}

// snapshotAt decodes the image of the snapshot file named for seq and
// checks that the snapshot claims that generation.
func snapshotAt(seq uint64, data []byte) (*Snapshot, error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.Seq != seq {
		return nil, corruptf("claims generation %d", snap.Seq)
	}
	return snap, nil
}

// loadLatestSnapshot tries snapshots newest-first and returns the
// first that validates. A corrupt newer snapshot is remembered: if the
// log alone cannot reach a consistent state either, its error is what
// the caller reports.
func loadLatestSnapshot(dir string, snaps []uint64) (*Snapshot, error) {
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := readDurable(filepath.Join(dir, snapName(snaps[i])))
		if err == nil {
			var snap *Snapshot
			if snap, err = snapshotAt(snaps[i], data); err == nil {
				return snap, firstErr
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", snapName(snaps[i]), err)
		}
	}
	return nil, firstErr
}

// Open opens (or creates) the durable store in dir and recovers its
// state: the latest valid snapshot plus the contiguous log suffix past
// it. A torn tail on the last segment is truncated; every other
// inconsistency — checksum mismatch, a generation gap or duplicate,
// an undecodable record — refuses to open with an error matching
// ErrCorrupt.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	if err := faultinject.Fire(faultinject.SiteStoreOpen); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	snaps, segs, err := listDir(dir)
	if err != nil {
		return nil, nil, err
	}

	snap, snapErr := loadLatestSnapshot(dir, snaps)
	base := uint64(0)
	if snap != nil {
		base = snap.Seq
	}

	// Scan every segment in start order. Only the last may end torn.
	rec := &Recovery{Snapshot: snap}
	var run seqRun
	var lastDict *DecDict
	var lastPath string
	var lastEnd int
	for i, start := range segs {
		path := filepath.Join(dir, segName(start))
		data, err := readDurable(path)
		if err != nil {
			return nil, nil, err
		}
		dict := NewDecDict()
		recs, end, tail, err := scanSegment(data, dict)
		switch {
		case err != nil: // the walk's own verdict
		case tail == tailBadLastSum:
			err = corruptf("checksum mismatch in frame at offset %d", end)
		case tail != tailNone && i != len(segs)-1:
			err = corruptf("torn tail in a non-final segment")
		}
		for j := 0; err == nil && j < len(recs); j++ {
			r := recs[j]
			if err = run.next(start, r.Seq); err == nil && r.Seq > base {
				rec.Records = append(rec.Records, r)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", segName(start), err)
		}
		if i == len(segs)-1 {
			lastDict, lastPath, lastEnd = dict, path, end
			rec.TornTail = tail != tailNone
		}
	}

	// The replay suffix must connect to the base snapshot: its first
	// record is generation base+1 or the snapshot is the whole story.
	if len(rec.Records) > 0 && rec.Records[0].Seq != base+1 {
		if snapErr != nil {
			return nil, nil, fmt.Errorf("%w (and no older state bridges the gap to record seq %d)", snapErr, rec.Records[0].Seq)
		}
		return nil, nil, corruptf("generation gap: snapshot at %d, first log record at %d", base, rec.Records[0].Seq)
	}
	if snap == nil && len(segs) > 0 && len(snaps) > 0 && len(rec.Records) == 0 && snapErr != nil {
		// Snapshots exist but none validates and the log alone holds
		// nothing: there is state we cannot reconstruct.
		return nil, nil, snapErr
	}
	rec.LastSeq = base
	if n := len(rec.Records); n > 0 {
		rec.LastSeq = rec.Records[n-1].Seq
	}

	s := &Store{dir: dir, opts: opts, dict: NewEncDict(), lastSeq: rec.LastSeq}
	if lastDict != nil {
		// Continue appending to the existing last segment: truncate
		// the torn tail away, reopen for append, and rebuild the
		// writer's segment-local dictionary from what the segment
		// already stores (file-local IDs are dense, in scan order).
		if rec.TornTail {
			if err := os.Truncate(lastPath, int64(lastEnd)); err != nil {
				return nil, nil, err
			}
		}
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		s.f = f
		s.segStart = segs[len(segs)-1]
		for fid, t := range lastDict.terms {
			pid, ok := term.IDOf(t)
			if !ok {
				f.Close()
				return nil, nil, corruptf("%s: non-ground term in dictionary entry %d", filepath.Base(lastPath), fid)
			}
			s.dict.ids[pid] = uint64(fid)
		}
		s.dict.next = uint64(len(lastDict.terms))
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(base)), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, nil, err
		}
		s.f = f
		s.segStart = base
	}
	s.sinceSnap = len(rec.Records)

	if snap != nil || len(rec.Records) > 0 {
		obsv.Recoveries.Inc()
		obsv.ReplayedRecords.Add(int64(len(rec.Records)))
	}
	return s, rec, nil
}

// LastSeq returns the last durable generation.
func (s *Store) LastSeq() uint64 { return s.lastSeq }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Options returns the options the store was opened with.
func (s *Store) Options() Options { return s.opts }

// Append frames, checksums, writes and fsyncs one record. r.Seq must
// be exactly LastSeq()+1 — generations are contiguous by construction
// and recovery verifies it. On any failure the store turns fail-stop:
// the error is sticky and every later Append returns it, because a
// partially written tail makes the durable position unknowable.
func (s *Store) Append(r Record) error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		return errClosed
	}
	if r.Seq != s.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d, want %d", r.Seq, s.lastSeq+1)
	}
	payload, err := EncodeRecord(r, s.dict)
	if err != nil {
		s.err = err
		return err
	}
	frame := Frame(payload)
	frame, err = faultinject.FireData(faultinject.SiteWALAppend, frame)
	if err != nil {
		s.err = err
		return err
	}
	if _, err := s.f.Write(frame); err != nil {
		s.err = err
		return err
	}
	if err := s.sync(); err != nil {
		s.err = err
		return err
	}
	s.lastSeq = r.Seq
	s.sinceSnap++
	obsv.WALAppends.Inc()
	obsv.WALBytes.Add(int64(len(frame)))
	return nil
}

// sync fsyncs the active segment, honoring the wal.sync fault site:
// an injected ErrSkipOp skips the real fsync while reporting success
// (the fsync lie), any other injected error fails the append.
func (s *Store) sync() error {
	if err := faultinject.Fire(faultinject.SiteWALSync); err != nil {
		if errors.Is(err, faultinject.ErrSkipOp) {
			return nil
		}
		return err
	}
	if s.opts.NoSync {
		return nil
	}
	return s.f.Sync()
}

// Sync fsyncs the active segment on demand. Promotion uses it: a
// follower must make its applied tail durable before it starts
// accepting writes as the new leader.
func (s *Store) Sync() error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		return errClosed
	}
	return s.sync()
}

// errClosed refuses use of a closed store, so a closed durable
// database fails mutations loudly instead of silently dropping
// durability.
var errClosed = errors.New("wal: store is closed")

// SnapshotDue reports whether enough records accumulated since the
// last snapshot that the caller should compact.
func (s *Store) SnapshotDue() bool {
	if s.err != nil || s.f == nil {
		return false
	}
	every := s.opts.SnapshotEvery
	if every < 0 {
		return false
	}
	if every == 0 {
		every = defaultSnapshotEvery
	}
	return s.sinceSnap >= every
}

// WriteSnapshot writes a compacted snapshot of the current generation
// (snap.Seq must equal LastSeq), rotates to a fresh log segment, and
// prunes the history the snapshot supersedes. The write is atomic:
// temp file, fsync, rename, directory fsync — a crash at any point
// leaves either the old history or the new snapshot, never a hybrid.
// Failures are not sticky: the log remains authoritative and
// compaction can simply be retried.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		return errClosed
	}
	if snap.Seq != s.lastSeq {
		return fmt.Errorf("wal: snapshot seq %d, store at %d", snap.Seq, s.lastSeq)
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	data, err = faultinject.FireData(faultinject.SiteSnapshotWrite, data)
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapName(snap.Seq))
	tmp := final + tmpSuffix
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	obsv.WALSnapshots.Inc()

	// Rotate to a fresh segment so the snapshot supersedes everything
	// before it. If the store is already on segment snap.Seq (a
	// checkpoint retried after a crash between rename and rotation),
	// the current segment is already the right one.
	if s.segStart != snap.Seq {
		nf, err := os.OpenFile(filepath.Join(s.dir, segName(snap.Seq)), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		old := s.f
		s.f = nf
		s.segStart = snap.Seq
		s.dict = NewEncDict()
		old.Close()
	}
	s.sinceSnap = 0

	// Prune superseded history, best-effort: recovery tolerates
	// leftovers (it skips records at or below the snapshot seq), so a
	// crash mid-prune costs disk space, not correctness.
	snaps, segs, err := listDir(s.dir)
	if err == nil {
		for _, v := range snaps {
			if v < snap.Seq {
				os.Remove(filepath.Join(s.dir, snapName(v)))
			}
		}
		for _, v := range segs {
			if v < snap.Seq {
				os.Remove(filepath.Join(s.dir, segName(v)))
			}
		}
	}
	return nil
}

// Close fsyncs and closes the active segment. The store must not be
// used afterwards.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	syncErr := error(nil)
	if !s.opts.NoSync && s.err == nil {
		syncErr = s.f.Sync()
	}
	closeErr := s.f.Close()
	s.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	closeErr := d.Close()
	if err != nil {
		return err
	}
	return closeErr
}

// RecordOffsets returns the byte offset at which each whole,
// checksum-valid frame of a log segment starts, plus the offset just
// past the last of them. Corruption sweeps use it to place truncations
// and bit flips exactly on and around record boundaries. It does not
// decode record bodies.
func RecordOffsets(path string) (offsets []int64, end int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	n, _, _ := walkFrames(data, func(off int, _ []byte) error {
		offsets = append(offsets, int64(off))
		return nil
	})
	return offsets, int64(n), nil
}
