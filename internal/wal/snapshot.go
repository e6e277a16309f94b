package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"chainsplit/internal/relation"
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
	// Facts is the global fact stream in accumulation order.
	Facts []FactRow
}

// FactRow is one stored fact.
type FactRow struct {
	Pred  string
	Tuple relation.Tuple
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

// EncodeSnapshot renders the self-contained image of snap — the bytes
// WriteSnapshot persists, and a bootstrap payload for a follower whose
// position left retained history.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	// Pred table in first-appearance order; fact rows reference it by
	// index so the per-fact overhead is one uvarint.
	predIdx := make(map[string]int)
	type predInfo struct {
		name  string
		arity int
	}
	var preds []predInfo

	d := NewEncDict()
	var factBuf []byte
	for _, fr := range snap.Facts {
		idx, ok := predIdx[fr.Pred]
		if !ok {
			idx = len(preds)
			predIdx[fr.Pred] = idx
			preds = append(preds, predInfo{fr.Pred, len(fr.Tuple)})
		} else if preds[idx].arity != len(fr.Tuple) {
			return nil, fmt.Errorf("wal: predicate %s seen with arities %d and %d", fr.Pred, preds[idx].arity, len(fr.Tuple))
		}
		factBuf = binary.AppendUvarint(factBuf, uint64(idx))
		var err error
		if factBuf, err = d.appendRow(factBuf, fr.Tuple); err != nil {
			return nil, err
		}
	}

	out := append([]byte(nil), snapMagic...)
	out = binary.BigEndian.AppendUint64(out, snap.Seq)
	out = binary.AppendUvarint(out, uint64(len(snap.Rules)))
	out = append(out, snap.Rules...)
	out = binary.AppendUvarint(out, uint64(len(preds)))
	for _, p := range preds {
		out = binary.AppendUvarint(out, uint64(len(p.name)))
		out = append(out, p.name...)
		out = binary.AppendUvarint(out, uint64(p.arity))
	}
	out, err := d.appendDelta(out)
	if err != nil {
		return nil, err
	}
	out = binary.AppendUvarint(out, uint64(len(snap.Facts)))
	out = append(out, factBuf...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out, nil
}

// DecodeSnapshot validates and parses an EncodeSnapshot image. Errors
// match ErrCorrupt.
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
	type predInfo struct {
		name  string
		arity uint64
	}
	preds := make([]predInfo, predCount)
	for i := range preds {
		var nameLen uint64
		nameLen, rest, err = readUvarint(rest, "predicate name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > uint64(len(rest)) {
			return nil, corruptf("predicate name length %d invalid for %d remaining bytes", nameLen, len(rest))
		}
		preds[i].name = string(rest[:nameLen])
		rest = rest[nameLen:]
		preds[i].arity, rest, err = readUvarint(rest, "predicate arity")
		if err != nil {
			return nil, err
		}
		if preds[i].arity > maxRecordLen/8 {
			return nil, corruptf("predicate %s arity %d out of range", preds[i].name, preds[i].arity)
		}
	}

	d := NewDecDict()
	if rest, err = d.readDelta(rest); err != nil {
		return nil, err
	}

	factCount, rest, err := readUvarint(rest, "snapshot fact count")
	if err != nil {
		return nil, err
	}
	if factCount > uint64(len(rest))+1 {
		return nil, corruptf("snapshot fact count %d exceeds remaining bytes", factCount)
	}
	snap.Facts = make([]FactRow, 0, factCount)
	for i := uint64(0); i < factCount; i++ {
		var idx uint64
		idx, rest, err = readUvarint(rest, "fact predicate index")
		if err != nil {
			return nil, err
		}
		if idx >= predCount {
			return nil, corruptf("fact %d references predicate %d of %d", i, idx, predCount)
		}
		p := preds[idx]
		if uint64(len(rest)) < p.arity*8 {
			return nil, corruptf("fact %d truncated: needs %d row bytes, %d remain", i, p.arity*8, len(rest))
		}
		tup := make(relation.Tuple, p.arity)
		if err := d.readRow(rest, tup); err != nil {
			return nil, err
		}
		rest = rest[p.arity*8:]
		snap.Facts = append(snap.Facts, FactRow{Pred: p.name, Tuple: tup})
	}
	if len(rest) != 0 {
		return nil, corruptf("snapshot has %d trailing bytes", len(rest))
	}
	return snap, nil
}
