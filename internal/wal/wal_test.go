package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

func tup(ts ...term.Term) relation.Tuple { return relation.Tuple(ts) }

func execRec(seq uint64, src string) Record {
	return Record{Seq: seq, Type: RecExec, Src: src}
}

func factsRec(seq uint64, pred string, tuples ...relation.Tuple) Record {
	return Record{Seq: seq, Type: RecFacts, Pred: pred, Tuples: tuples}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !term.Equal(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	batch := []relation.Tuple{
		tup(term.NewSym("a"), term.NewInt(1)),
		tup(term.NewStr("hello"), term.NewComp("f", term.NewInt(2), term.NewSym("x"))),
		tup(term.NewSym("a"), term.NewInt(-7)),
	}
	if err := s.Append(execRec(1, "p(X) :- e(X).\ne(1).\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(factsRec(2, "edge", batch...)); err != nil {
		t.Fatal(err)
	}
	// Second batch reusing terms: dictionary deltas must not repeat.
	if err := s.Append(factsRec(3, "edge", tup(term.NewSym("a"), term.NewInt(1)))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec2.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if len(rec2.Records) != 3 || rec2.LastSeq != 3 {
		t.Fatalf("recovered %d records, LastSeq %d", len(rec2.Records), rec2.LastSeq)
	}
	if rec2.Records[0].Type != RecExec || rec2.Records[0].Src != "p(X) :- e(X).\ne(1).\n" {
		t.Fatalf("exec record mangled: %+v", rec2.Records[0])
	}
	if rec2.Records[1].Pred != "edge" || !sameTuples(rec2.Records[1].Tuples, batch) {
		t.Fatalf("facts record mangled: %+v", rec2.Records[1])
	}
	// Appends must continue seamlessly after recovery.
	if err := s2.Append(factsRec(4, "edge", tup(term.NewSym("a"), term.NewInt(1)))); err != nil {
		t.Fatal(err)
	}
}

func TestSeqDiscipline(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Append(execRec(5, "x.")); err == nil {
		t.Fatal("append with wrong seq succeeded")
	}
	if err := s.Append(execRec(1, "x(1).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(execRec(1, "x(2).")); err == nil {
		t.Fatal("duplicate seq append succeeded")
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{SnapshotEvery: -1})
	for i := uint64(1); i <= 3; i++ {
		if err := s.Append(factsRec(i, "edge", tup(term.NewInt(int64(i)), term.NewSym("n")))); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapOf(3, "p(X) :- edge(X, _).\n",
		factRow{"edge", tup(term.NewInt(1), term.NewSym("n"))},
		factRow{"edge", tup(term.NewInt(2), term.NewSym("n"))},
		factRow{"edge", tup(term.NewInt(3), term.NewSym("n"))},
	)
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// One more record after the snapshot.
	if err := s.Append(factsRec(4, "edge", tup(term.NewInt(4), term.NewSym("n")))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction pruned the pre-snapshot segment.
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("pre-snapshot segment survived pruning: %v", err)
	}

	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 3 {
		t.Fatalf("recovered snapshot %+v", rec.Snapshot)
	}
	if rec.Snapshot.Rules != snap.Rules || len(collect(t, rec.Snapshot.Stream)) != 3 {
		t.Fatalf("snapshot content mangled: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 4 || rec.LastSeq != 4 {
		t.Fatalf("replay suffix wrong: %+v", rec.Records)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(execRec(2, "a(2).")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, segName(0))
	offsets, end, err := RecordOffsets(seg)
	if err != nil || len(offsets) != 2 {
		t.Fatalf("RecordOffsets: %v %v", offsets, err)
	}
	// Tear the second record: keep a few bytes past its frame start.
	if err := os.Truncate(seg, offsets[1]+3); err != nil {
		t.Fatal(err)
	}
	_ = end

	s2, rec := mustOpen(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 1 || rec.LastSeq != 1 {
		t.Fatalf("recovered %+v", rec.Records)
	}
	// The tail must be physically gone and appends must continue.
	if fi, _ := os.Stat(seg); fi.Size() != offsets[1] {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), offsets[1])
	}
	if err := s2.Append(execRec(2, "a(2).")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestChecksumMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(execRec(2, "a(2).")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, segName(0))
	offsets, _, _ := RecordOffsets(seg)
	data, _ := os.ReadFile(seg)
	data[offsets[0]+frameHeaderLen+2] ^= 0x40 // flip a payload bit in record 1
	os.WriteFile(seg, data, 0o644)

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after bit flip: %v", err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "checksum") {
		t.Fatalf("fsck missed the flip: %+v", rep.Problems)
	}
}

func TestDuplicatedRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, segName(0))
	data, _ := os.ReadFile(seg)
	os.WriteFile(seg, append(data, data...), 0o644) // duplicate the record

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after duplication: %v", err)
	}
	rep, _ := Fsck(dir)
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "duplicated") {
		t.Fatalf("fsck missed the duplicate: %+v", rep.Problems)
	}
}

func TestDanglingTermIDIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(factsRec(1, "edge", tup(term.NewSym("a"), term.NewSym("b")))); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the record with a row word referencing a dictionary
	// entry that does not exist, re-framed with a valid checksum.
	seg := filepath.Join(dir, segName(0))
	data, _ := os.ReadFile(seg)
	payload := append([]byte(nil), data[frameHeaderLen:]...)
	// The last 8 bytes of a facts payload are the final row word.
	binary.BigEndian.PutUint64(payload[len(payload)-8:], fileRefBit|999)
	os.WriteFile(seg, Frame(payload), 0o644)

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with dangling term ID: %v", err)
	}
	rep, _ := Fsck(dir)
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "dangling") {
		t.Fatalf("fsck missed the dangling ID: %+v", rep.Problems)
	}
}

func TestNonMonotonicGenerationIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(execRec(2, "a(2).")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the second record claiming generation 7: a gap.
	seg := filepath.Join(dir, segName(0))
	offsets, _, _ := RecordOffsets(seg)
	data, _ := os.ReadFile(seg)
	payload := append([]byte(nil), data[offsets[1]+frameHeaderLen:]...)
	binary.BigEndian.PutUint64(payload[1:9], 7)
	os.WriteFile(seg, append(data[:offsets[1]], Frame(payload)...), 0o644)

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with generation gap: %v", err)
	}
	rep, _ := Fsck(dir)
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "gap") {
		t.Fatalf("fsck missed the gap: %+v", rep.Problems)
	}
}

func TestCorruptSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(factsRec(1, "e", tup(term.NewSym("a")))); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(snapOf(1, "", factRow{"e", tup(term.NewSym("a"))})); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, snapName(1))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	os.WriteFile(path, data, 0o644)

	// The snapshot is the only state (the log was rotated empty), so
	// the store must refuse to open.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	rep, _ := Fsck(dir)
	if rep.OK() {
		t.Fatal("fsck missed the corrupt snapshot")
	}
}

func TestFsyncLieAndFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	restore := faultinject.Set(faultinject.SiteWALSync, func() error { return faultinject.ErrSkipOp })
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatalf("fsync lie must report success: %v", err)
	}
	restore()
	injected := errors.New("disk on fire")
	faultinject.Set(faultinject.SiteWALSync, func() error { return injected })
	if err := s.Append(execRec(2, "a(2).")); !errors.Is(err, injected) {
		t.Fatalf("fsync failure not surfaced: %v", err)
	}
	// The store is now fail-stop.
	faultinject.Reset()
	if err := s.Append(execRec(2, "a(2).")); !errors.Is(err, injected) {
		t.Fatalf("store not fail-stop after append failure: %v", err)
	}
	s.Close()
}

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append(factsRec(i, "e", tup(term.NewInt(int64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(snapOf(5, "p(X) :- e(X).\n",
		factRow{"e", tup(term.NewInt(1))}, factRow{"e", tup(term.NewInt(2))},
		factRow{"e", tup(term.NewInt(3))}, factRow{"e", tup(term.NewInt(4))},
		factRow{"e", tup(term.NewInt(5))},
	)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(factsRec(6, "e", tup(term.NewInt(6)))); err != nil {
		t.Fatal(err)
	}
	s.Close()
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store flagged: %+v", rep.Problems)
	}
	if rep.LastSeq != 6 {
		t.Fatalf("LastSeq %d, want 6", rep.LastSeq)
	}
	if !strings.Contains(rep.String(), "clean") {
		t.Fatalf("report rendering: %s", rep.String())
	}
}

// TestTornWriteInjection simulates a crash mid-append with the
// wal.append data hook: the store believes the append succeeded, but
// only a prefix of the frame reached disk. Reopening must drop the
// torn record and recover the previous generation.
func TestTornWriteInjection(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	restore := faultinject.SetData(faultinject.SiteWALAppend, func(b []byte) ([]byte, error) {
		return b[:len(b)/2], nil // tear the write in half
	})
	if err := s.Append(execRec(2, "a(2).")); err != nil {
		t.Fatalf("torn append must look like success to the writer: %v", err)
	}
	restore()
	s.Close() // the "crash": nothing more reaches the file

	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if !rec.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rec.LastSeq != 1 || len(rec.Records) != 1 {
		t.Fatalf("recovered to %d with %d records, want generation 1", rec.LastSeq, len(rec.Records))
	}
}

// TestShortReadInjection fails recovery when the wal.read hook
// shortens the segment image mid-record — indistinguishable from a
// truncated file, so the torn-tail rules apply.
func TestShortReadInjection(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(execRec(2, "a(2).")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	restore := faultinject.SetData(faultinject.SiteWALRead, func(b []byte) ([]byte, error) {
		return b[:len(b)-4], nil
	})
	defer restore()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("short read mid-record must recover the prefix: %v", err)
	}
	if !rec.TornTail || rec.LastSeq != 1 {
		t.Fatalf("recovered %+v, want torn tail at generation 1", rec)
	}
}

// TestBitFlipReadInjection fails recovery with ErrCorrupt when the
// wal.read hook flips a bit inside a complete frame.
func TestBitFlipReadInjection(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(execRec(1, "a(1).")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	restore := faultinject.SetData(faultinject.SiteWALRead, func(b []byte) ([]byte, error) {
		out := append([]byte(nil), b...)
		out[frameHeaderLen+3] ^= 0x10
		return out, nil
	})
	defer restore()
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped read: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotWriteInjection fails a checkpoint through the
// wal.snapshot data hook; the log stays authoritative and a retry
// succeeds.
func TestSnapshotWriteInjection(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append(factsRec(1, "e", tup(term.NewInt(1)))); err != nil {
		t.Fatal(err)
	}
	snap := snapOf(1, "", factRow{"e", tup(term.NewInt(1))})
	injected := errors.New("snapshot device gone")
	restore := faultinject.SetData(faultinject.SiteSnapshotWrite, func(b []byte) ([]byte, error) {
		return nil, injected
	})
	if err := s.WriteSnapshot(snap); !errors.Is(err, injected) {
		t.Fatalf("snapshot write failure not surfaced: %v", err)
	}
	restore()
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatalf("retry after snapshot failure: %v", err)
	}
	if err := s.Append(factsRec(2, "e", tup(term.NewInt(2)))); err != nil {
		t.Fatalf("log must stay usable after snapshot failure: %v", err)
	}
	s.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 1 || rec.LastSeq != 2 {
		t.Fatalf("recovered %+v", rec)
	}
}
