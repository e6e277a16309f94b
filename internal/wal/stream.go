package wal

// The replication transport (internal/replica) reuses the on-disk
// codecs: frames built by Frame, payloads by EncodeRecord, snapshots
// by EncodeSnapshot. What differs is dictionary scope — a log
// segment's dictionary is per-file, a replication stream's is
// per-connection — so the record codec takes the dictionary
// explicitly. The leader re-encodes every shipped record against its
// connection's EncDict, which keeps file-local dictionary references
// valid across segment boundaries the follower never sees.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// ReadFrame reads exactly one frame from r and returns its payload,
// verifying length bound and checksum. An io error is returned as-is
// (a clean EOF before the header means the stream ended between
// frames); a corrupt frame — oversized length claim or checksum
// mismatch — matches ErrCorrupt, which the replication layer treats
// as a poisoned connection: drop it and retry, never apply.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	crc := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxRecordLen {
		return nil, corruptf("stream frame claims %d bytes (max %d)", length, maxRecordLen)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, corruptf("stream frame checksum mismatch")
	}
	return payload, nil
}
