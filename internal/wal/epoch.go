package wal

// The epoch state file: a tiny fixed-size record beside the log
// segments persisting the leader epoch the database last served under
// and whether it has fenced itself (learned of a successor's higher
// epoch). It is written before the in-memory state changes — fencing
// must survive a crash, or a deposed leader could reopen writable and
// accept mutations a successor will never see.
//
// The file is replaced atomically (tmp + fsync + rename + dir fsync,
// the snapshot discipline) so a crash mid-write leaves the previous
// state, never a torn one. A torn or bit-flipped file fails the open
// with ErrCorrupt: guessing at fencing state is the one thing this
// record exists to prevent.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"chainsplit/internal/faultinject"
)

// epochFile is the state file's name inside a store directory. It does
// not match the segment/snapshot naming scheme, so directory scans and
// pruning ignore it.
const epochFile = "epoch"

// epochMagic identifies (and versions) the epoch file format.
var epochMagic = []byte("CSEPOCH2")

// epochFileSize = magic(8) + epoch(8) + maxSeen(8) + flags(1) + crc(4).
const epochFileSize = 29

// EpochState is the fencing state persisted beside the WAL.
type EpochState struct {
	// Epoch is the leader epoch this database last served under.
	// Promotion bumps it; followers adopt higher epochs heard on the
	// replication stream.
	Epoch uint64
	// MaxSeen is the highest epoch this database has ever heard of,
	// its own included. A fenced ex-leader keeps serving under its OLD
	// Epoch but must remember the successor's higher epoch here: a
	// later Promote mints MaxSeen+1, never a number a live successor
	// is already writing under.
	MaxSeen uint64
	// Fenced records that the database has learned of a higher epoch
	// and refuses mutations until promoted. The state keeps the OLD
	// epoch: a fenced ex-leader reopens read-only in the epoch it was
	// deposed from, it does not silently join the successor's.
	Fenced bool
}

// ReadEpochState loads the epoch state from dir. A missing file is the
// zero state (epoch 0, not fenced) — every pre-epoch store directory
// is one. A torn or corrupt file is an ErrCorrupt match.
func ReadEpochState(dir string) (EpochState, error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFile))
	if errors.Is(err, fs.ErrNotExist) {
		return EpochState{}, nil
	}
	if err != nil {
		return EpochState{}, err
	}
	return decodeEpochState(data)
}

// decodeEpochState parses an epoch file's bytes.
func decodeEpochState(data []byte) (EpochState, error) {
	if len(data) != epochFileSize || string(data[:8]) != string(epochMagic) {
		return EpochState{}, corruptf("epoch state file: bad size or magic")
	}
	if crc32.Checksum(data[:25], castagnoli) != binary.BigEndian.Uint32(data[25:]) {
		return EpochState{}, corruptf("epoch state file: checksum mismatch")
	}
	flags := data[24]
	if flags > 1 {
		return EpochState{}, corruptf("epoch state file: unknown flags %#x", flags)
	}
	st := EpochState{
		Epoch:   binary.BigEndian.Uint64(data[8:16]),
		MaxSeen: binary.BigEndian.Uint64(data[16:24]),
		Fenced:  flags&1 != 0,
	}
	if st.MaxSeen < st.Epoch {
		return EpochState{}, corruptf("epoch state file: max seen epoch %d below serving epoch %d", st.MaxSeen, st.Epoch)
	}
	return st, nil
}

// WriteEpochState persists st in dir, atomically replacing any
// previous state. MaxSeen below Epoch is normalized up (a node has
// always heard of its own epoch). The replica.epoch fault site carries
// the encoded bytes, so tests can tear or corrupt the fencing record
// in flight.
func WriteEpochState(dir string, st EpochState) error {
	data, err := faultinject.FireData(faultinject.SiteReplicaEpoch, encodeEpochState(st))
	if err != nil {
		return err
	}
	final := filepath.Join(dir, epochFile)
	tmp := final + tmpSuffix
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// encodeEpochState renders st as an epoch file's bytes, raising MaxSeen
// to at least Epoch.
func encodeEpochState(st EpochState) []byte {
	if st.MaxSeen < st.Epoch {
		st.MaxSeen = st.Epoch
	}
	data := make([]byte, 0, epochFileSize)
	data = append(data, epochMagic...)
	data = binary.BigEndian.AppendUint64(data, st.Epoch)
	data = binary.BigEndian.AppendUint64(data, st.MaxSeen)
	if st.Fenced {
		data = append(data, 1)
	} else {
		data = append(data, 0)
	}
	return binary.BigEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
}
