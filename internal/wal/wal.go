// Package wal implements the durability subsystem: a checksummed,
// length-prefixed write-ahead log of database mutations, periodic
// compacted snapshots, and recovery-on-open that replays the log
// suffix past the latest valid snapshot.
//
// The contract is the one a crash demands: every mutation is framed,
// checksummed and fsynced before the in-memory generation that carries
// it is published, so a `kill -9` at any instant loses at most the
// mutation that had not yet returned to its caller. On reopen the
// store recovers to exactly the last durable generation — a torn tail
// (the unfinished final append a crash leaves behind) is detected and
// dropped — or, if the log or a snapshot fails validation anywhere
// else, it refuses to open with an error matching ErrCorrupt. There is
// no third outcome: recovered state is never guessed at.
//
// # Record format
//
// A log segment is a sequence of frames:
//
//	frame   := length uint32 BE | crc uint32 BE | payload
//	payload := type byte | seq uint64 BE | body
//
// crc is CRC-32C (Castagnoli) over the payload. seq is the database
// generation the record produces; generations increase by exactly one
// per mutation, which recovery and fsck verify. Two record types
// exist: an Exec record carries program source text (rules, pragmas
// and parser-loaded facts — the text round-trips through the parser),
// and a Facts record carries one bulk LoadFacts batch in the
// dictionary-delta encoding below.
//
// # Dictionary-delta fact encoding
//
// Fact tuples are serialized via fixed-width term IDs, mirroring the
// in-memory storage layer (internal/relation keys tuples on packed
// 8-byte dictionary codes; internal/term assigns them). Each segment
// and each snapshot carries its own append-only term dictionary:
// the first record that stores a given non-small-integer ground term
// includes the term's binary encoding (term.AppendEncode) as a
// dictionary delta, implicitly assigning the next dense file-local ID;
// every row is then a fixed-width vector of 8-byte words:
//
//	bit 63 set   → file-local dictionary reference (lower 63 bits)
//	bit 63 clear → a small-integer term.ID, self-describing (tag 000)
//
// Small integers need no dictionary entry on disk for the same reason
// they need none in memory. A reference to a file ID no dictionary
// delta has defined is a dangling interned-term ID — corruption that
// both recovery and fsck reject.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// ErrCorrupt matches (errors.Is) every failure caused by invalid
// durable state: checksum mismatches, truncated or duplicated records,
// dangling term IDs, non-monotonic generations, unparseable replayed
// sources. A store that cannot recover to a consistent generation
// refuses to open with an error matching this sentinel.
var ErrCorrupt = errors.New("durable store is corrupt")

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// RecordType discriminates log records.
type RecordType byte

const (
	// RecExec is a program load: body is source text.
	RecExec RecordType = 1
	// RecFacts is a bulk fact batch: body is the dictionary-delta
	// encoding of (pred, arity, tuples).
	RecFacts RecordType = 2
)

// Record is one durable mutation.
type Record struct {
	// Seq is the generation this mutation produces.
	Seq  uint64
	Type RecordType
	// Src is the program source text (RecExec).
	Src string
	// Pred, Tuples carry the batch (RecFacts).
	Pred   string
	Tuples []relation.Tuple
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the fixed frame prefix: length + crc.
const frameHeaderLen = 8

// payloadHeaderLen is type byte + seq.
const payloadHeaderLen = 9

// maxRecordLen bounds one payload (256 MiB); longer claims are
// corruption, not data.
const maxRecordLen = 1 << 28

// Frame wraps a payload in the on-disk frame: length, CRC-32C,
// payload. Exported so integrity tools and tests can construct valid
// frames around hand-built payloads.
func Frame(payload []byte) []byte {
	out := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	copy(out[frameHeaderLen:], payload)
	return out
}

// fileRefBit marks a row word as a file-local dictionary reference.
const fileRefBit = uint64(1) << 63

// EncDict is an encoding term dictionary: dense file-local IDs for
// every non-small-integer term written since it started. Each log
// segment and each snapshot has its own; so does each replication
// stream (see stream.go). The first record that stores a term carries
// the term's encoding as a dictionary delta. One writer per EncDict,
// never shared.
type EncDict struct {
	ids  map[term.ID]uint64 // process-wide ID → file-local ID
	next uint64
	// fresh lists the terms appendRow met first since the last
	// appendDelta, in first-use order; buf is scratch.
	fresh []term.Term
	buf   []byte
}

// NewEncDict returns an empty encoding dictionary.
func NewEncDict() *EncDict { return &EncDict{ids: make(map[term.ID]uint64)} }

// appendRow appends tup's fixed-width row words to rows, giving each
// term new to d the next file-local ID. The words are derived from the
// same packed process-wide ID encoding the relation layer keys storage
// on (relation.AppendIDKey), translated word by word into the stable
// on-disk namespace.
func (d *EncDict) appendRow(rows []byte, tup relation.Tuple) ([]byte, error) {
	var ok bool
	d.buf, ok = relation.AppendIDKey(d.buf[:0], tup)
	if !ok {
		return rows, fmt.Errorf("wal: non-ground tuple %v", tup)
	}
	for i := range tup {
		pid := term.ID(binary.BigEndian.Uint64(d.buf[8*i:]))
		if _, small := pid.SmallInt(); small {
			rows = binary.BigEndian.AppendUint64(rows, uint64(pid))
			continue
		}
		fid, seen := d.ids[pid]
		if !seen {
			fid = d.next
			d.next++
			d.ids[pid] = fid
			d.fresh = append(d.fresh, tup[i])
		}
		rows = binary.BigEndian.AppendUint64(rows, fileRefBit|fid)
	}
	return rows, nil
}

// appendDelta appends the dictionary section of the terms appendRow
// met first since the last call: a uvarint count, then each term's
// uvarint length and binary encoding (term.AppendEncode).
func (d *EncDict) appendDelta(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(d.fresh)))
	for _, t := range d.fresh {
		var err error
		if d.buf, err = term.AppendEncode(d.buf[:0], t); err != nil {
			return dst, fmt.Errorf("wal: %v", err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(d.buf)))
		dst = append(dst, d.buf...)
	}
	d.fresh = d.fresh[:0]
	return dst, nil
}

// DecDict is the decoding side of EncDict: file-local ID → term, grown
// as dictionary sections are read.
type DecDict struct {
	terms []term.Term
}

// NewDecDict returns an empty decoding dictionary.
func NewDecDict() *DecDict { return &DecDict{} }

// readDelta reads a dictionary section written by appendDelta at the
// front of b, extending d, and returns the bytes after it.
func (d *DecDict) readDelta(b []byte) ([]byte, error) {
	n, b, err := readUvarint(b, "dictionary delta count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, corruptf("dictionary delta count %d exceeds %d remaining bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var encLen uint64
		encLen, b, err = readUvarint(b, "dictionary entry length")
		if err != nil {
			return nil, err
		}
		if encLen > uint64(len(b)) {
			return nil, corruptf("dictionary entry length %d exceeds %d remaining bytes", encLen, len(b))
		}
		t, rest, derr := term.Decode(b[:encLen])
		if derr != nil {
			return nil, corruptf("dictionary entry %d: %v", len(d.terms), derr)
		}
		if len(rest) != 0 {
			return nil, corruptf("dictionary entry %d: %d trailing bytes", len(d.terms), len(rest))
		}
		d.terms = append(d.terms, t)
		b = b[encLen:]
	}
	return b, nil
}

// readRow resolves the len(tup) row words at the front of b into tup.
func (d *DecDict) readRow(b []byte, tup relation.Tuple) error {
	for c := range tup {
		w := binary.BigEndian.Uint64(b[8*c:])
		switch {
		case w&fileRefBit != 0:
			fid := w &^ fileRefBit
			if fid >= uint64(len(d.terms)) {
				return corruptf("dangling interned-term ID %d (dictionary has %d entries)", fid, len(d.terms))
			}
			tup[c] = d.terms[fid]
		default:
			v, ok := term.ID(w).SmallInt()
			if !ok {
				return corruptf("row word %#x is neither a file reference nor a small integer", w)
			}
			tup[c] = term.NewInt(v)
		}
	}
	return nil
}

func readUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corruptf("truncated %s", what)
	}
	return v, b[n:], nil
}

// EncodeRecord renders r's payload (type | seq | body), advancing d
// for a fact batch: its dictionary delta, then its fixed-width rows.
// Frame the result before writing it to a segment or a stream.
func EncodeRecord(r Record, d *EncDict) ([]byte, error) {
	payload := make([]byte, 0, payloadHeaderLen+len(r.Src))
	payload = append(payload, byte(r.Type))
	payload = binary.BigEndian.AppendUint64(payload, r.Seq)
	switch r.Type {
	case RecExec:
		payload = append(payload, r.Src...)
	case RecFacts:
		if r.Pred == "" || len(r.Tuples) == 0 {
			return nil, fmt.Errorf("wal: facts record needs a predicate and tuples")
		}
		payload = binary.AppendUvarint(payload, uint64(len(r.Pred)))
		payload = append(payload, r.Pred...)
		payload = binary.AppendUvarint(payload, uint64(len(r.Tuples[0])))
		rows := make([]byte, 0, 8*len(r.Tuples)*len(r.Tuples[0]))
		var err error
		for _, tup := range r.Tuples {
			if rows, err = d.appendRow(rows, tup); err != nil {
				return nil, err
			}
		}
		if payload, err = d.appendDelta(payload); err != nil {
			return nil, err
		}
		payload = binary.AppendUvarint(payload, uint64(len(r.Tuples)))
		payload = append(payload, rows...)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return payload, nil
}

// DecodeRecord parses a payload produced by EncodeRecord, resolving
// fact rows through (and extending) d. Decode errors match ErrCorrupt.
func DecodeRecord(payload []byte, d *DecDict) (Record, error) {
	if len(payload) < payloadHeaderLen {
		return Record{}, corruptf("record payload of %d bytes is shorter than the %d-byte header", len(payload), payloadHeaderLen)
	}
	r := Record{
		Type: RecordType(payload[0]),
		Seq:  binary.BigEndian.Uint64(payload[1:9]),
	}
	body := payload[payloadHeaderLen:]
	switch r.Type {
	case RecExec:
		r.Src = string(body)
		return r, nil
	case RecFacts:
		predLen, body, err := readUvarint(body, "predicate length")
		if err != nil {
			return Record{}, err
		}
		if predLen == 0 || predLen > uint64(len(body)) {
			return Record{}, corruptf("predicate length %d invalid for %d remaining bytes", predLen, len(body))
		}
		r.Pred = string(body[:predLen])
		body = body[predLen:]
		arity, body, err := readUvarint(body, "arity")
		if err != nil {
			return Record{}, err
		}
		if arity == 0 || arity > maxRecordLen/8 {
			return Record{}, corruptf("arity %d out of range", arity)
		}
		body, err = d.readDelta(body)
		if err != nil {
			return Record{}, err
		}
		rowCount, body, err := readUvarint(body, "row count")
		if err != nil {
			return Record{}, err
		}
		if rowCount*arity*8 != uint64(len(body)) {
			return Record{}, corruptf("facts record claims %d rows × %d columns but has %d row bytes", rowCount, arity, len(body))
		}
		r.Tuples = make([]relation.Tuple, rowCount)
		for i := range r.Tuples {
			tup := make(relation.Tuple, arity)
			if err := d.readRow(body[uint64(i)*arity*8:], tup); err != nil {
				return Record{}, err
			}
			r.Tuples[i] = tup
		}
		return r, nil
	default:
		return Record{}, corruptf("unknown record type %d", r.Type)
	}
}

// frameTail classifies what follows the last whole, checksum-valid
// frame of a segment image. Each reader decides what a kind means to
// it: recovery truncates a torn tail, fsck reports it, the online
// scrub and the replication tail treat it as an append in flight.
type frameTail int

const (
	// tailNone: the image ends on a frame boundary.
	tailNone frameTail = iota
	// tailPartial: a frame header or payload runs past the end.
	tailPartial
	// tailZeros: the rest of the image is zero bytes (some filesystems
	// surface a crash as zeros past the last durable write).
	tailZeros
	// tailBadLastSum: the final frame fails its checksum; a concurrent
	// write may not be wholly visible yet.
	tailBadLastSum
)

// walkFrames is the only parser of a segment's frame layout. It calls
// fn with the offset and payload of each whole, checksum-valid frame,
// in order, and returns where those frames end and what follows them.
// A zero header followed by non-zero bytes, a length claim over
// maxRecordLen and a checksum mismatch with more data after the frame
// are corruption no append could leave behind; they and any error
// from fn stop the walk and are returned with end at the offending
// frame.
func walkFrames(data []byte, fn func(off int, payload []byte) error) (end int, tail frameTail, err error) {
	for {
		rest := data[end:]
		if len(rest) == 0 {
			return end, tailNone, nil
		}
		if len(rest) < frameHeaderLen {
			return end, tailPartial, nil
		}
		length := binary.BigEndian.Uint32(rest[0:4])
		crc := binary.BigEndian.Uint32(rest[4:8])
		if length == 0 && crc == 0 {
			for _, b := range rest {
				if b != 0 {
					return end, tailNone, corruptf("zero-length frame at offset %d followed by non-zero data", end)
				}
			}
			return end, tailZeros, nil
		}
		if length > maxRecordLen {
			return end, tailNone, corruptf("frame at offset %d claims %d bytes (max %d)", end, length, maxRecordLen)
		}
		if uint64(len(rest)-frameHeaderLen) < uint64(length) {
			return end, tailPartial, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(length)]
		if crc32.Checksum(payload, castagnoli) != crc {
			if len(rest) == frameHeaderLen+int(length) {
				return end, tailBadLastSum, nil
			}
			return end, tailNone, corruptf("checksum mismatch in frame at offset %d", end)
		}
		if err := fn(end, payload); err != nil {
			return end, tailNone, err
		}
		end += frameHeaderLen + int(length)
	}
}

// scanSegment decodes the whole frames of a segment image through
// dict, the segment's read dictionary. On error it still returns the
// records decoded before the failing frame.
func scanSegment(data []byte, dict *DecDict) (recs []Record, end int, tail frameTail, err error) {
	end, tail, err = walkFrames(data, func(_ int, payload []byte) error {
		rec, err := DecodeRecord(payload, dict)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, end, tail, err
}

// seqRun is the record-order rule, stated once: a record lies past its
// segment's start and follows the previous record by exactly one
// generation.
type seqRun struct {
	prev uint64
	seen bool
}

// next checks the record seq of the segment starting at start and, if
// it lies past that start, makes it the previous record.
func (r *seqRun) next(start, seq uint64) error {
	if seq <= start {
		return corruptf("record generation %d not past segment start %d", seq, start)
	}
	prev, seen := r.prev, r.seen
	r.prev, r.seen = seq, true
	switch {
	case !seen || seq == prev+1:
		return nil
	case seq <= prev:
		return corruptf("duplicated or non-monotonic generation %d after %d", seq, prev)
	}
	return corruptf("generation gap: %d follows %d", seq, prev)
}
