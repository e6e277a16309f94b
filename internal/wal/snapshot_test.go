package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// factRow is one stored fact of a test snapshot.
type factRow struct {
	pred string
	tup  relation.Tuple
}

// rowStream is a fact stream held as a list.
type rowStream []factRow

func (s rowStream) Runs(fn func(pred string, arity, n int)) {
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j].pred == s[i].pred {
			j++
		}
		fn(s[i].pred, len(s[i].tup), j-i)
		i = j
	}
}

func (s rowStream) Each(fn func(pred string, tup relation.Tuple) error) error {
	for _, r := range s {
		if err := fn(r.pred, r.tup); err != nil {
			return err
		}
	}
	return nil
}

func snapOf(seq uint64, rules string, rows ...factRow) *Snapshot {
	return &Snapshot{Seq: seq, Rules: rules, Stream: rowStream(rows)}
}

// collect reads a fact stream back as a list.
func collect(t testing.TB, s FactStream) rowStream {
	t.Helper()
	var out rowStream
	if s == nil {
		return out
	}
	if err := s.Each(func(pred string, tup relation.Tuple) error {
		out = append(out, factRow{pred, tup})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// encodeSnapshotList is the encoder the streaming one replaced, kept
// as the byte-identity oracle: it builds the whole image in memory from
// a list of facts, growing its buffers by append.
func encodeSnapshotList(seq uint64, rules string, facts []factRow) ([]byte, error) {
	predIdx := make(map[string]int)
	var preds []snapPred
	d := NewEncDict()
	var factBuf []byte
	for _, fr := range facts {
		idx, ok := predIdx[fr.pred]
		if !ok {
			idx = len(preds)
			predIdx[fr.pred] = idx
			preds = append(preds, snapPred{fr.pred, len(fr.tup)})
		} else if preds[idx].arity != len(fr.tup) {
			return nil, fmt.Errorf("wal: predicate %s seen with arities %d and %d", fr.pred, preds[idx].arity, len(fr.tup))
		}
		factBuf = binary.AppendUvarint(factBuf, uint64(idx))
		var err error
		if factBuf, err = d.appendRow(factBuf, fr.tup); err != nil {
			return nil, err
		}
	}
	out := append([]byte(nil), snapMagic...)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.AppendUvarint(out, uint64(len(rules)))
	out = append(out, rules...)
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
	out = binary.AppendUvarint(out, uint64(len(facts)))
	out = append(out, factBuf...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out, nil
}

// randomTerm draws small and big integers, symbols, strings and
// compounds, from pools small enough that terms repeat.
func randomTerm(rng *rand.Rand, depth int) term.Term {
	switch k := rng.Intn(6); {
	case k == 0:
		return term.NewInt(int64(rng.Intn(100)) - 50)
	case k == 1:
		return term.NewInt(int64(rng.Uint64() >> 1))
	case k == 2:
		return term.NewSym(fmt.Sprintf("s%d", rng.Intn(40)))
	case k == 3:
		return term.NewStr(fmt.Sprintf("str %d", rng.Intn(40)))
	case depth > 0:
		return term.NewComp(fmt.Sprintf("f%d", rng.Intn(3)), randomTerm(rng, depth-1), randomTerm(rng, depth-1))
	default:
		return term.NewSym(fmt.Sprintf("leaf%d", rng.Intn(10)))
	}
}

// randomFacts draws a stream over several predicates and arities, in
// runs of random length.
func randomFacts(rng *rand.Rand, n int) []factRow {
	preds := []struct {
		name  string
		arity int
	}{{"e", 2}, {"p", 1}, {"q", 3}, {"unit", 0}, {"wide", 5}}
	var out []factRow
	for len(out) < n {
		p := preds[rng.Intn(len(preds))]
		for run := 1 + rng.Intn(8); run > 0 && len(out) < n; run-- {
			tup := make(relation.Tuple, p.arity)
			for c := range tup {
				tup[c] = randomTerm(rng, 2)
			}
			out = append(out, factRow{p.name, tup})
		}
	}
	return out
}

// streamedImage encodes snap both ways the store does: in one buffer
// and streamed to a file.
func streamedImage(t *testing.T, snap *Snapshot) (buf, file []byte) {
	t.Helper()
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeSnapshotFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	if file, err = os.ReadFile(filepath.Join(dir, snapName(snap.Seq))); err != nil {
		t.Fatal(err)
	}
	return buf, file
}

func TestStreamedSnapshotMatchesListEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, n := range []int{0, 1, 2, 17, 300, 5000} {
		facts := randomFacts(rng, n)
		rules := ""
		if i%2 == 1 {
			rules = "p(X) :- e(X, _).\n"
		}
		want, err := encodeSnapshotList(uint64(i+1), rules, facts)
		if err != nil {
			t.Fatal(err)
		}
		buf, file := streamedImage(t, snapOf(uint64(i+1), rules, facts...))
		if !bytes.Equal(buf, want) || !bytes.Equal(file, want) {
			t.Fatalf("%d facts: streamed image differs from the list encoder's", n)
		}
		snap, err := DecodeSnapshot(file)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, snap.Stream)
		if len(got) != len(facts) || snap.Rules != rules {
			t.Fatalf("%d facts: decoded %d, rules %q", n, len(got), snap.Rules)
		}
		for j := range got {
			if got[j].pred != facts[j].pred || !sameTuples([]relation.Tuple{got[j].tup}, []relation.Tuple{facts[j].tup}) {
				t.Fatalf("%d facts: fact %d decoded as %s%s, want %s%s", n, j, got[j].pred, got[j].tup, facts[j].pred, facts[j].tup)
			}
		}
	}
}

// layeredStream streams relations that each span many generations of
// one log, interleaved in runs the way a generation's order record
// interleaves its writes.
type layeredStream struct {
	rels  map[string]*relation.Relation
	order []struct {
		pred string
		n    int
	}
}

func (s *layeredStream) Runs(fn func(pred string, arity, n int)) {
	for _, r := range s.order {
		fn(r.pred, s.rels[r.pred].Arity(), r.n)
	}
}

func (s *layeredStream) Each(fn func(pred string, tup relation.Tuple) error) error {
	next := map[string]int{}
	for _, r := range s.order {
		for i := next[r.pred]; i < next[r.pred]+r.n; i++ {
			if err := fn(r.pred, s.rels[r.pred].At(i)); err != nil {
				return err
			}
		}
		next[r.pred] += r.n
	}
	return nil
}

func TestStreamedSnapshotOfLayeredRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := &layeredStream{rels: map[string]*relation.Relation{"e": relation.New("e", 2), "p": relation.New("p", 1)}}
	var list []factRow
	for write := 0; write < 40; write++ {
		pred := "e"
		if write%3 == 2 {
			pred = "p"
		}
		// Each write clones the relation it touches, as a generation
		// does, and appends to the log the clone shares with it.
		r := s.rels[pred].Clone()
		added := 0
		for k := 0; k < 1+rng.Intn(20); k++ {
			tup := make(relation.Tuple, r.Arity())
			for c := range tup {
				tup[c] = randomTerm(rng, 1)
			}
			if r.Insert(tup) {
				list = append(list, factRow{pred, tup})
				added++
			}
		}
		r.Freeze()
		s.rels[pred] = r
		if added > 0 {
			s.order = append(s.order, struct {
				pred string
				n    int
			}{pred, added})
		}
	}
	if !s.rels["e"].Frozen() || s.rels["e"].Len() != len(collectPred(list, "e")) {
		t.Fatal("layered relation lost tuples")
	}
	want, err := encodeSnapshotList(9, "", list)
	if err != nil {
		t.Fatal(err)
	}
	buf, file := streamedImage(t, &Snapshot{Seq: 9, Stream: s})
	if !bytes.Equal(buf, want) || !bytes.Equal(file, want) {
		t.Fatal("streamed image of layered relations differs from the list encoder's")
	}
}

func collectPred(rows []factRow, pred string) []factRow {
	var out []factRow
	for _, r := range rows {
		if r.pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// A stream whose facts disagree with its runs is refused before any
// file appears.
func TestSnapshotStreamMismatchRefused(t *testing.T) {
	bad := []*Snapshot{
		{Seq: 1, Stream: mismatched{runs: rowStream{{"e", tup(term.NewInt(1))}}, facts: rowStream{{"f", tup(term.NewInt(1))}}}},
		{Seq: 1, Stream: mismatched{runs: rowStream{{"e", tup(term.NewInt(1))}}, facts: rowStream{{"e", tup(term.NewInt(1), term.NewInt(2))}}}},
		{Seq: 1, Stream: mismatched{runs: rowStream{{"e", tup(term.NewInt(1))}}, facts: rowStream{}}},
		snapOf(1, "", factRow{"e", tup(term.NewInt(1))}, factRow{"f", tup()}, factRow{"e", tup(term.NewInt(1), term.NewInt(2))}),
		snapOf(1, "", factRow{"e", tup(term.NewVar("X"))}),
	}
	for i, snap := range bad {
		dir := t.TempDir()
		if err := writeSnapshotFile(dir, snap); err == nil {
			t.Fatalf("case %d: inconsistent stream encoded", i)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("case %d: refused snapshot left %d files", i, len(entries))
		}
	}
}

type mismatched struct{ runs, facts rowStream }

func (m mismatched) Runs(fn func(pred string, arity, n int)) { m.runs.Runs(fn) }
func (m mismatched) Each(fn func(pred string, tup relation.Tuple) error) error {
	return m.facts.Each(fn)
}

// A decoded image is written back verbatim, and re-encoding its stream
// reproduces it.
func TestDecodedSnapshotRoundTrip(t *testing.T) {
	facts := randomFacts(rand.New(rand.NewSource(3)), 200)
	img, err := EncodeSnapshot(snapOf(4, "q(X) :- p(X).\n", facts...))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	buf, file := streamedImage(t, snap)
	if !bytes.Equal(file, img) || !bytes.Equal(buf, img) {
		t.Fatal("decoded snapshot not written back, or re-encoded, as it was")
	}
	// A changed header makes the store re-encode the stream too.
	snap.Seq = 5
	again, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodeSnapshotList(5, snap.Rules, facts)
	if !bytes.Equal(again, want) {
		t.Fatal("re-encoded decoded stream differs from the list encoder's")
	}
}

// The wal.snapshot fault site sees the streamed bytes: a hook that
// flips one bit leaves a file that fails its checksum.
func TestSnapshotStreamFaultFlip(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if err := s.Append(factsRec(1, "e", tup(term.NewInt(1)))); err != nil {
		t.Fatal(err)
	}
	var seen int
	faultinject.SetData(faultinject.SiteSnapshotWrite, func(b []byte) ([]byte, error) {
		out := append([]byte(nil), b...)
		if seen == 0 && len(out) > 12 {
			out[12] ^= 0x01
		}
		seen += len(b)
		return out, nil
	})
	if err := s.WriteSnapshot(snapOf(1, "", factRow{"e", tup(term.NewInt(1))})); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(data) {
		t.Fatalf("hook saw %d bytes, file holds %d", seen, len(data))
	}
	if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped streamed byte not caught: %v", err)
	}
}

// FuzzDecodeSnapshot feeds mutated snapshot images to the decoder: a
// corrupt image yields ErrCorrupt and never panics, and a valid one's
// stream reads back and re-encodes to an image that decodes. Each input
// is also decoded under a recomputed checksum, so mutations reach the
// checks behind it.
func FuzzDecodeSnapshot(f *testing.F) {
	for i, n := range []int{0, 1, 12} {
		img, err := encodeSnapshotList(uint64(i), "p(X) :- e(X, _).\n", randomFacts(rand.New(rand.NewSource(int64(i))), n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Add([]byte("CSDBSNP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFuzzed(t, data)
		if len(data) >= 4 {
			body := slices.Clip(data[:len(data)-4])
			decodeFuzzed(t, binary.BigEndian.AppendUint32(body, crc32.Checksum(body, castagnoli)))
		}
	})
}

func decodeFuzzed(t *testing.T, data []byte) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error does not match ErrCorrupt: %v", err)
		}
		return
	}
	n := 0
	snap.Stream.Runs(func(_ string, _, k int) { n += k })
	if got := len(collect(t, snap.Stream)); got != n {
		t.Fatalf("stream yields %d facts, runs count %d", got, n)
	}
	// Forcing a re-encode (a new Seq) walks the stream's runs and
	// facts; whatever encodes must decode.
	again, err := EncodeSnapshot(&Snapshot{Seq: snap.Seq + 1, Rules: snap.Rules, Stream: snap.Stream})
	if err == nil {
		if _, err := DecodeSnapshot(again); err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
	}
}

// BenchmarkWriteSnapshot times one streamed snapshot file of n binary
// facts over distinct symbols, the shape of a loaded edge relation.
func BenchmarkWriteSnapshot(b *testing.B) {
	for _, n := range []int{10_000, 160_000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			rows := make(rowStream, n)
			for i := range rows {
				rows[i] = factRow{"parent", tup(term.NewSym(fmt.Sprintf("b%d", i)), term.NewSym(fmt.Sprintf("b%d", i/2)))}
			}
			snap := &Snapshot{Seq: 1, Stream: rows}
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := writeSnapshotFile(dir, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
