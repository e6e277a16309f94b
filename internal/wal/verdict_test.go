package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chainsplit/internal/term"
)

// verdictImages builds one segment of three records and the ten ways
// the verdict table damages it. The clean image comes first.
func verdictImages(t testing.TB) []struct {
	name string
	data []byte
} {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"a(1).", "a(2).", "a(3)."} {
		if err := s.Append(execRec(uint64(i+1), src)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	clean, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	offs, _, err := RecordOffsets(filepath.Join(dir, segName(0)))
	if err != nil || len(offs) != 3 {
		t.Fatalf("RecordOffsets: %v %v", offs, err)
	}
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), clean...))
	}
	renumber := func(i int, seq uint64) []byte {
		return edit(func(b []byte) []byte {
			end := int64(len(b))
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			payload := append([]byte(nil), b[offs[i]+frameHeaderLen:end]...)
			binary.BigEndian.PutUint64(payload[1:9], seq)
			return append(append(b[:offs[i]], Frame(payload)...), b[end:]...)
		})
	}
	return []struct {
		name string
		data []byte
	}{
		{"clean", clean},
		{"last frame cut 3 bytes into its header", clean[:offs[2]+3]},
		{"last frame cut 2 bytes into its payload", clean[:offs[2]+frameHeaderLen+2]},
		{"32 zero bytes appended", edit(func(b []byte) []byte { return append(b, make([]byte, 32)...) })},
		{"16 zero bytes, then garbage", edit(func(b []byte) []byte {
			return append(append(b, make([]byte, 16)...), "garbage"...)
		})},
		{"last frame claims 2^28+1 bytes", edit(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[offs[2]:], maxRecordLen+1)
			return b
		})},
		{"last frame bad checksum", edit(func(b []byte) []byte { b[offs[2]+frameHeaderLen+2] ^= 0x40; return b })},
		{"first frame bad checksum", edit(func(b []byte) []byte { b[offs[0]+frameHeaderLen+2] ^= 0x40; return b })},
		{"record 2 renumbered 7", renumber(1, 7)},
		{"record 3 renumbered 2", renumber(2, 2)},
	}
}

// verdict is what one reader made of one image: how many records it
// accepted (Open, Tail), and whether it saw a torn tail (Open),
// reported a problem (Fsck, online scrub), failed with ErrCorrupt, or
// is waiting for the rest of a frame (Tail).
type verdict struct {
	n       int
	torn    bool
	problem bool
	corrupt bool
	waits   bool
}

// TestReaderVerdicts pins how each reader of a segment — recovery,
// Fsck, the online scrub and the replication tail — judges the same
// ten images. The assertions are outcomes and record counts, never
// message text.
func TestReaderVerdicts(t *testing.T) {
	type row struct{ open, fsck, online, tail verdict }
	want := map[string]row{
		"clean":                                   {verdict{n: 3}, verdict{}, verdict{}, verdict{n: 3}},
		"last frame cut 3 bytes into its header":  {verdict{n: 2, torn: true}, verdict{problem: true}, verdict{}, verdict{n: 2, waits: true}},
		"last frame cut 2 bytes into its payload": {verdict{n: 2, torn: true}, verdict{problem: true}, verdict{}, verdict{n: 2, waits: true}},
		"32 zero bytes appended":                  {verdict{n: 3, torn: true}, verdict{problem: true}, verdict{}, verdict{n: 3, corrupt: true}},
		"16 zero bytes, then garbage":             {verdict{corrupt: true}, verdict{problem: true}, verdict{problem: true}, verdict{n: 3, corrupt: true}},
		"last frame claims 2^28+1 bytes":          {verdict{corrupt: true}, verdict{problem: true}, verdict{problem: true}, verdict{n: 2, corrupt: true}},
		"last frame bad checksum":                 {verdict{corrupt: true}, verdict{problem: true}, verdict{}, verdict{n: 2, waits: true}},
		"first frame bad checksum":                {verdict{corrupt: true}, verdict{problem: true}, verdict{problem: true}, verdict{corrupt: true}},
		"record 2 renumbered 7":                   {verdict{corrupt: true}, verdict{problem: true}, verdict{problem: true}, verdict{n: 1, corrupt: true}},
		// A duplicated generation is refused by every reader; the tail
		// delivers the records before it and then fails.
		"record 3 renumbered 2": {verdict{corrupt: true}, verdict{problem: true}, verdict{problem: true}, verdict{n: 2, corrupt: true}},
	}
	images := verdictImages(t)
	if len(images) != len(want) {
		t.Fatalf("%d images, %d expectations", len(images), len(want))
	}
	for _, img := range images {
		w, ok := want[img.name]
		if !ok {
			t.Fatalf("no expectation for %q", img.name)
		}
		got := row{
			open:   openVerdict(t, img.data),
			fsck:   checkVerdict(t, img.data, false),
			online: checkVerdict(t, img.data, true),
			tail:   tailVerdict(t, img.data),
		}
		for _, c := range []struct {
			reader    string
			got, want verdict
		}{{"Open", got.open, w.open}, {"Fsck", got.fsck, w.fsck}, {"online", got.online, w.online}, {"Tail", got.tail, w.tail}} {
			if c.got != c.want {
				t.Errorf("%s / %s: got %+v, want %+v", img.name, c.reader, c.got, c.want)
			}
		}
	}
}

// storeDir writes data as the only segment of a fresh directory.
func storeDir(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openVerdict(t *testing.T, data []byte) verdict {
	s, rec, err := Open(storeDir(t, data), Options{NoSync: true})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open: %v does not match ErrCorrupt", err)
		}
		return verdict{corrupt: true}
	}
	s.Close()
	return verdict{n: len(rec.Records), torn: rec.TornTail}
}

func checkVerdict(t *testing.T, data []byte, online bool) verdict {
	rep, err := VerifyDir(storeDir(t, data), online, nil)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	return verdict{problem: !rep.OK()}
}

func tailVerdict(t *testing.T, data []byte) verdict {
	dir := storeDir(t, data)
	tl, err := OpenTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, err := tl.Poll()
	v := verdict{n: len(recs)}
	switch {
	case err != nil:
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Poll: %v does not match ErrCorrupt", err)
		}
		v.corrupt = true
	default:
		v.waits = tl.off < int64(len(data))
	}
	return v
}

// FuzzScanSegment checks the frame walker on arbitrary images: it never
// panics, the end it reports lies within the image, and when the image
// holds no corruption, the prefix up to that end scans again to the
// same records with nothing after them. The verdict table's images and
// a facts segment are the seed corpus, so plain `go test` replays them.
func FuzzScanSegment(f *testing.F) {
	for _, img := range verdictImages(f) {
		f.Add(img.data)
	}
	payload, err := EncodeRecord(factsRec(1, "e",
		tup(term.NewSym("a"), term.NewInt(2)),
		tup(term.NewComp("f", term.NewSym("a")), term.NewInt(-1))), NewEncDict())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Frame(payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end, _, err := scanSegment(data, NewDecDict())
		if end < 0 || end > len(data) {
			t.Fatalf("end %d outside [0, %d]", end, len(data))
		}
		if err != nil {
			return
		}
		again, end2, tail, err := scanSegment(data[:end], NewDecDict())
		if err != nil || tail != tailNone || end2 != end {
			t.Fatalf("rescan of the prefix: end %d, tail %d, err %v; want end %d, no tail", end2, tail, err, end)
		}
		if len(again) != len(recs) {
			t.Fatalf("rescan gives %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.Seq != b.Seq || a.Type != b.Type || a.Src != b.Src || a.Pred != b.Pred || !sameTuples(a.Tuples, b.Tuples) {
				t.Fatalf("record %d: %+v, then %+v", i, a, b)
			}
		}
	})
}
