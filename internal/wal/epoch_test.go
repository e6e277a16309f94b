package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// epochImage encodes an epoch file by hand, flags and all, with a
// valid checksum — so images WriteEpochState never produces (unknown
// flags, MaxSeen below Epoch) still get past the CRC.
func epochImage(epoch, maxSeen uint64, flags byte) []byte {
	data := append([]byte(nil), epochMagic...)
	data = binary.BigEndian.AppendUint64(data, epoch)
	data = binary.BigEndian.AppendUint64(data, maxSeen)
	data = append(data, flags)
	return binary.BigEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
}

// FuzzReadEpochState checks the epoch-file parser on arbitrary bytes:
// it never panics, and a file it accepts has MaxSeen >= Epoch and is
// exactly what WriteEpochState writes for the state it parsed to, so
// writing that state back reads back the same state and bytes. Inputs
// are parsed in memory; only accepted ones, which must carry a valid
// checksum, go through the files.
func FuzzReadEpochState(f *testing.F) {
	for _, st := range []EpochState{{}, {Epoch: 3, MaxSeen: 3}, {Epoch: 0, MaxSeen: 5, Fenced: true}, {Epoch: 7, MaxSeen: 9, Fenced: true}} {
		f.Add(encodeEpochState(st))
	}
	valid := epochImage(6, 6, 1)
	f.Add(valid[:epochFileSize-1]) // short
	badMagic := bytes.Clone(valid)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badCRC := bytes.Clone(valid)
	badCRC[epochFileSize-1] ^= 0x01
	f.Add(badCRC)
	f.Add(epochImage(1, 1, 2)) // unknown flags
	f.Add(epochImage(5, 4, 0)) // MaxSeen below Epoch
	dir := f.TempDir()         // a fuzz worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeEpochState(data)
		if err != nil {
			return
		}
		if st.MaxSeen < st.Epoch {
			t.Fatalf("accepted %+v with MaxSeen below Epoch", st)
		}
		if err := WriteEpochState(dir, st); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEpochState(dir)
		if err != nil || again != st {
			t.Fatalf("round trip of %+v read back %+v, %v", st, again, err)
		}
		written, err := os.ReadFile(filepath.Join(dir, epochFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, data) {
			t.Fatalf("round trip of %+v wrote %x, parsed from %x", st, written, data)
		}
	})
}
