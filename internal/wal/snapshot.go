package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Snapshot is a compacted image of one database generation: the
// accumulated rules-and-pragmas source text (facts excluded — they
// ride in the fact stream) plus every stored fact, in the exact global
// order the generation accumulated them. Preserving the single global
// stream — rather than per-relation dumps — is what makes replayed
// databases bit-identical to the originals: relation insertion order,
// which the storage layer preserves and the determinism suite pins,
// survives the round trip.
type Snapshot struct {
	// Seq is the generation this snapshot captures.
	Seq uint64
	// Rules is the rendered rules+pragmas source (parseable text).
	Rules string
	// Stream yields the global fact stream in accumulation order; nil
	// holds no facts. It is read, not copied: encoding a snapshot walks
	// the stream once and never materializes the facts as a list.
	Stream FactStream
}

// FactStream is a snapshot's stored facts in global accumulation
// order, read as runs of consecutive facts of one predicate.
type FactStream interface {
	// Runs calls fn on each run in stream order with its predicate,
	// the predicate's arity and the number of facts in the run. The
	// encoder sizes its row buffer from the runs before it reads a
	// fact.
	Runs(fn func(pred string, arity, n int))
	// Each calls fn on every fact in stream order and returns the first
	// error fn returns. Tuples are never mutated, so fn may keep them.
	Each(fn func(pred string, tup relation.Tuple) error) error
}

// Snapshot file layout (snap-<seq 16hex>.csdb):
//
//	magic "CSDBSNP1"
//	seq uint64 BE
//	uvarint rulesLen | rules source bytes
//	uvarint predCount | predCount × (uvarint nameLen | name | uvarint arity)
//	uvarint dictCount | dictCount × (uvarint encLen | term encoding)
//	uvarint factCount | factCount × (uvarint predIdx | arity × rowWord uint64 BE)
//	crc uint32 BE over everything above
//
// Row words use the same bit-63 file-reference / small-integer scheme
// as log records; the dictionary is snapshot-local.
var snapMagic = []byte("CSDBSNP1")

// snapPred is one entry of a snapshot's predicate table.
type snapPred struct {
	name  string
	arity int
}

// snapBody is a snapshot encoded up to its byte layout: the predicate
// table, the dictionary of every non-small-integer term and the fact
// rows in one buffer of exactly their size. The dictionary section is
// written from dict's terms when the body is, so beyond the rows the
// heap holds O(distinct terms).
type snapBody struct {
	snap  *Snapshot
	preds []snapPred
	dict  snapDict
	facts int
	rows  []byte
}

// encodeBody reads snap's fact stream once, after sizing the row
// buffer from its runs. Predicates are numbered in first-appearance
// order, so each row carries its predicate as one uvarint.
func encodeBody(snap *Snapshot) (*snapBody, error) {
	b := &snapBody{snap: snap}
	if snap.Stream == nil {
		return b, nil
	}
	predIdx := make(map[string]int)
	size := 0
	var err error
	snap.Stream.Runs(func(pred string, arity, n int) {
		idx, ok := predIdx[pred]
		if !ok {
			idx = len(b.preds)
			predIdx[pred] = idx
			b.preds = append(b.preds, snapPred{pred, arity})
		} else if b.preds[idx].arity != arity && err == nil {
			err = fmt.Errorf("wal: predicate %s seen with arities %d and %d", pred, b.preds[idx].arity, arity)
		}
		b.facts += n
		size += n * (uvarintLen(uint64(idx)) + 8*arity)
	})
	if err != nil {
		return nil, err
	}
	b.rows = make([]byte, 0, size)
	last, lastIdx := "", -1
	err = snap.Stream.Each(func(pred string, tup relation.Tuple) error {
		if lastIdx < 0 || pred != last {
			idx, ok := predIdx[pred]
			if !ok {
				return fmt.Errorf("wal: fact of predicate %s outside the stream's runs", pred)
			}
			last, lastIdx = pred, idx
		}
		if len(tup) != b.preds[lastIdx].arity {
			return fmt.Errorf("wal: predicate %s seen with arities %d and %d", pred, b.preds[lastIdx].arity, len(tup))
		}
		b.rows = binary.AppendUvarint(b.rows, uint64(lastIdx))
		return b.dict.appendRow(&b.rows, tup)
	})
	if err != nil {
		return nil, err
	}
	if len(b.rows) != size {
		return nil, fmt.Errorf("wal: fact stream of %d row bytes disagrees with its runs (%d)", len(b.rows), size)
	}
	return b, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// snapDict is a snapshot's term dictionary: a file-local ID, in
// first-use order, for every non-small-integer term of the image. The
// terms and their process-wide IDs are kept in chunked lists that
// never copy as they grow, and an open-addressing table of file-local
// IDs, hashed on the process-wide ID, finds a term's entry; a slot
// holds ID+1, 0 marks it empty, and the table doubles before it is 3/4
// full. All of it allocates about 35 bytes per distinct term, where a
// Go map and an appended term list allocated about 150.
type snapDict struct {
	terms chunked[term.Term]
	ids   chunked[term.ID]
	table []uint32
	shift uint // 64 - log2(len(table))
	buf   []byte
}

// appendRow appends tup's row words to *rows, giving each term new to
// d the next file-local ID.
func (d *snapDict) appendRow(rows *[]byte, tup relation.Tuple) error {
	var ok bool
	d.buf, ok = relation.AppendIDKey(d.buf[:0], tup)
	if !ok {
		return fmt.Errorf("wal: non-ground tuple %v", tup)
	}
	for i := range tup {
		pid := term.ID(binary.BigEndian.Uint64(d.buf[8*i:]))
		if _, small := pid.SmallInt(); small {
			*rows = binary.BigEndian.AppendUint64(*rows, uint64(pid))
			continue
		}
		*rows = binary.BigEndian.AppendUint64(*rows, fileRefBit|uint64(d.fileID(pid, tup[i])))
	}
	return nil
}

// fileID returns pid's file-local ID, assigning the next one to t on
// first sight.
func (d *snapDict) fileID(pid term.ID, t term.Term) int {
	mask := len(d.table) - 1
	i := d.slot(pid)
	for ; mask >= 0 && d.table[i] != 0; i = (i + 1) & mask {
		if fid := int(d.table[i] - 1); d.ids.at(fid) == pid {
			return fid
		}
	}
	fid := d.ids.n
	d.ids.add(pid)
	d.terms.add(t)
	if 4*d.ids.n > 3*len(d.table) {
		d.rehash(max(1024, 2*len(d.table)))
	} else {
		d.table[i] = uint32(fid + 1)
	}
	return fid
}

// slot is where pid's probe starts (0 while the table has no slots).
func (d *snapDict) slot(pid term.ID) int {
	if len(d.table) == 0 {
		return 0
	}
	return int((uint64(pid) * 0x9e3779b97f4a7c15) >> d.shift)
}

// rehash rebuilds the table with size slots, a power of two.
func (d *snapDict) rehash(size int) {
	d.table = make([]uint32, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for fid := range d.ids.n {
		i := d.slot(d.ids.at(fid))
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = uint32(fid + 1)
	}
}

// writeDelta writes the dictionary section: the term count, then each
// term's uvarint length and binary encoding, in file-local ID order.
func (d *snapDict) writeDelta(w *bufio.Writer) error {
	writeUvarint(w, uint64(d.terms.n))
	for fid := range d.terms.n {
		var err error
		if d.buf, err = term.AppendEncode(d.buf[:0], d.terms.at(fid)); err != nil {
			return fmt.Errorf("wal: %v", err)
		}
		writeUvarint(w, uint64(len(d.buf)))
		w.Write(d.buf)
	}
	return nil
}

// chunkLen is the length of every chunk of a chunked list but its last.
const chunkLen = 4096

// chunked is an append-only list held in chunks of chunkLen, so that
// growing it never copies a full chunk. The first chunk grows by
// append, which keeps a small list small; every later one is
// allocated whole.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) add(v T) {
	if c.n%chunkLen == 0 {
		var next []T
		if c.n > 0 {
			next = make([]T, 0, chunkLen)
		}
		c.chunks = append(c.chunks, next)
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, v)
	c.n++
}

func (c *chunked[T]) at(i int) T { return c.chunks[i/chunkLen][i%chunkLen] }

// writeTo writes the snapshot image up to (not including) the CRC
// trailer.
func (b *snapBody) writeTo(w *bufio.Writer) error {
	w.Write(snapMagic)
	for sh := 56; sh >= 0; sh -= 8 {
		w.WriteByte(byte(b.snap.Seq >> sh))
	}
	writeUvarint(w, uint64(len(b.snap.Rules)))
	w.WriteString(b.snap.Rules)
	writeUvarint(w, uint64(len(b.preds)))
	for _, p := range b.preds {
		writeUvarint(w, uint64(len(p.name)))
		w.WriteString(p.name)
		writeUvarint(w, uint64(p.arity))
	}
	if err := b.dict.writeDelta(w); err != nil {
		return err
	}
	writeUvarint(w, uint64(b.facts))
	w.Write(b.rows)
	return w.Flush()
}

// writeUvarint writes v as binary.AppendUvarint would append it.
func writeUvarint(w *bufio.Writer, v uint64) {
	for ; v >= 0x80; v >>= 7 {
		w.WriteByte(byte(v) | 0x80)
	}
	w.WriteByte(byte(v))
}

// EncodeSnapshot renders the self-contained image of snap into one
// buffer — the bootstrap payload for a follower whose position left
// retained history. WriteSnapshot streams the same bytes to a file.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	b, err := encodeBody(snap)
	if err != nil {
		return nil, err
	}
	out := &sliceWriter{b: make([]byte, 0, len(b.rows)+len(snap.Rules)+16*b.dict.ids.n+64)}
	if err := b.writeTo(bufio.NewWriter(out)); err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint32(out.b, crc32.Checksum(out.b, castagnoli)), nil
}

// sliceWriter collects written bytes in memory.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// snapSink is where a streamed snapshot's bytes go on their way to the
// temp file: the running CRC-32C, then the wal.snapshot fault site.
type snapSink struct {
	f   *os.File
	crc uint32
}

func (s *snapSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	if err := s.put(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// put writes p to the file through the fault site, outside the CRC.
func (s *snapSink) put(p []byte) error {
	p, err := faultinject.FireData(faultinject.SiteSnapshotWrite, p)
	if err != nil {
		return err
	}
	_, err = s.f.Write(p)
	return err
}

// snapBufSize is the streaming writer's buffer: the small header
// fields and dictionary entries gather in it; the rows bypass it.
const snapBufSize = 64 << 10

// writeSnapshotFile writes snap atomically as dir's snapshot file for
// snap.Seq: streamed into a temp file, fsync, rename, directory fsync —
// a crash at any point leaves either no new snapshot or the whole one.
// The encoding is done before the temp file is created, so a snapshot
// the encoder refuses leaves no file behind.
func writeSnapshotFile(dir string, snap *Snapshot) error {
	img := imageOf(snap)
	var b *snapBody
	if img == nil {
		var err error
		if b, err = encodeBody(snap); err != nil {
			return err
		}
	}
	final := filepath.Join(dir, snapName(snap.Seq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sink := &snapSink{f: f}
	if img != nil {
		err = sink.put(img)
	} else if err = b.writeTo(bufio.NewWriterSize(sink, snapBufSize)); err == nil {
		err = sink.put(binary.BigEndian.AppendUint32(nil, sink.crc))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// DecodeSnapshot validates an EncodeSnapshot image and returns the
// snapshot it holds, whose Stream reads the facts from the image in
// place. The whole image is checked — checksum, then every section and
// row — before DecodeSnapshot returns, so nothing built from the
// stream comes from a corrupt image. Errors match ErrCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+8+4 {
		return nil, corruptf("snapshot of %d bytes is shorter than its header", len(data))
	}
	if !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, corruptf("snapshot magic mismatch")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(trailer) {
		return nil, corruptf("snapshot checksum mismatch")
	}
	snap := &Snapshot{Seq: binary.BigEndian.Uint64(body[len(snapMagic):])}
	rest := body[len(snapMagic)+8:]

	rulesLen, rest, err := readUvarint(rest, "snapshot rules length")
	if err != nil {
		return nil, err
	}
	if rulesLen > uint64(len(rest)) {
		return nil, corruptf("snapshot rules length %d exceeds %d remaining bytes", rulesLen, len(rest))
	}
	snap.Rules = string(rest[:rulesLen])
	rest = rest[rulesLen:]

	predCount, rest, err := readUvarint(rest, "snapshot predicate count")
	if err != nil {
		return nil, err
	}
	if predCount > uint64(len(rest)) {
		return nil, corruptf("snapshot predicate count %d exceeds remaining bytes", predCount)
	}
	s := &imageFacts{image: data, seq: snap.Seq, rules: snap.Rules, preds: make([]snapPred, predCount), dict: NewDecDict()}
	for i := range s.preds {
		var nameLen, arity uint64
		nameLen, rest, err = readUvarint(rest, "predicate name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > uint64(len(rest)) {
			return nil, corruptf("predicate name length %d invalid for %d remaining bytes", nameLen, len(rest))
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		arity, rest, err = readUvarint(rest, "predicate arity")
		if err != nil {
			return nil, err
		}
		if arity > maxRecordLen/8 {
			return nil, corruptf("predicate %s arity %d out of range", name, arity)
		}
		s.preds[i] = snapPred{name, int(arity)}
	}

	if rest, err = s.dict.readDelta(rest); err != nil {
		return nil, err
	}

	factCount, rest, err := readUvarint(rest, "snapshot fact count")
	if err != nil {
		return nil, err
	}
	if factCount > uint64(len(rest))+1 {
		return nil, corruptf("snapshot fact count %d exceeds remaining bytes", factCount)
	}
	s.count, s.rows = int(factCount), rest
	if err := s.walk(true, func(int, []byte) error { return nil }); err != nil {
		return nil, err
	}
	snap.Stream = s
	return snap, nil
}

// imageFacts is the fact stream of a decoded snapshot image: the rows
// are read from the image in place. The image is kept whole, so a
// store can write it back verbatim (see imageOf).
type imageFacts struct {
	image []byte
	seq   uint64
	rules string
	preds []snapPred
	dict  *DecDict
	count int
	rows  []byte
}

// walk calls fn on every row's predicate index and row words. With
// check set it checks the row section's structure, as DecodeSnapshot
// does once: each predicate index in range, each row whole, each word
// a small integer or a defined dictionary entry, no trailing bytes.
func (s *imageFacts) walk(check bool, fn func(idx int, words []byte) error) error {
	rest := s.rows
	for i := 0; i < s.count; i++ {
		idx, r, err := readUvarint(rest, "fact predicate index")
		if err != nil {
			return err
		}
		if idx >= uint64(len(s.preds)) {
			return corruptf("fact %d references predicate %d of %d", i, idx, len(s.preds))
		}
		n := 8 * s.preds[idx].arity
		if len(r) < n {
			return corruptf("fact %d truncated: needs %d row bytes, %d remain", i, n, len(r))
		}
		if check {
			if err := s.dict.checkRow(r[:n]); err != nil {
				return err
			}
		}
		if err := fn(int(idx), r[:n]); err != nil {
			return err
		}
		rest = r[n:]
	}
	if len(rest) != 0 {
		return corruptf("snapshot has %d trailing bytes", len(rest))
	}
	return nil
}

func (s *imageFacts) Runs(fn func(pred string, arity, n int)) {
	run, n := -1, 0
	s.walk(false, func(idx int, _ []byte) error {
		if idx != run && n > 0 {
			fn(s.preds[run].name, s.preds[run].arity, n)
			n = 0
		}
		run = idx
		n++
		return nil
	})
	if n > 0 {
		fn(s.preds[run].name, s.preds[run].arity, n)
	}
}

// Each decodes every fact into a tuple of its own, which fn may keep.
func (s *imageFacts) Each(fn func(pred string, tup relation.Tuple) error) error {
	return s.walk(false, func(idx int, words []byte) error {
		p := s.preds[idx]
		tup := make(relation.Tuple, p.arity)
		if err := s.dict.readRow(words, tup); err != nil {
			return err
		}
		return fn(p.name, tup)
	})
}

// imageOf returns the decoded image snap's stream reads, when it still
// encodes snap exactly, so a follower persists a shipped snapshot
// without re-encoding it; otherwise nil.
func imageOf(snap *Snapshot) []byte {
	if s, ok := snap.Stream.(*imageFacts); ok && s.seq == snap.Seq && s.rules == snap.Rules {
		return s.image
	}
	return nil
}
