// Package relation implements the set-oriented storage layer of the
// deductive database: relations of ground tuples with hash indexes,
// and the operations (selection, hash join, union, matching a literal)
// the engines are written against.
//
// Relations preserve insertion order, so every evaluation in this
// repository is deterministic; indexes are maintained incrementally on
// insert, so semi-naive iteration does not rebuild hash tables each
// round.
//
// Storage is dictionary-encoded: tuple identity, the presence set and
// every hash index key on the packed 8-byte-per-column dictionary
// codes of the ground terms (see term.IDOf), not on allocated
// canonical strings. Membership probes (Contains, Index.Probe,
// LookupOn, Select) are allocation-free: they pack
// codes into a stack-side buffer and use Go's no-copy string
// conversion for the map read, and a constant that was never interned
// short-circuits to "no match" without touching the dictionary.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chainsplit/internal/term"
)

// Tuple is an ordered list of ground terms.
type Tuple []term.Term

// appendIDKey appends the packed dictionary codes of every column,
// interning terms on first sight. ok is false if any column is not
// ground (such a tuple can never be stored).
func appendIDKey(dst []byte, t Tuple) ([]byte, bool) {
	for _, v := range t {
		id, ok := term.IDOf(v)
		if !ok {
			return dst, false
		}
		dst = append(dst,
			byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
			byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst, true
}

// AppendIDKey appends the fixed-width (8 bytes per column) dictionary
// codes of every column of t, interning terms on first sight — the
// same packed encoding the presence set and the hash indexes key on.
// ok is false if any column is not ground. Durable snapshots and WAL
// fact records serialize tuple rows in exactly this format, with a
// dictionary section mapping the non-self-describing IDs back to
// terms.
func AppendIDKey(dst []byte, t Tuple) ([]byte, bool) {
	return appendIDKey(dst, t)
}

// appendIDKeyOn is appendIDKey restricted to cols.
func appendIDKeyOn(dst []byte, t Tuple, cols []int) ([]byte, bool) {
	for _, c := range cols {
		id, ok := term.IDOf(t[c])
		if !ok {
			return dst, false
		}
		dst = append(dst,
			byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
			byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst, true
}

// appendProbeKey packs dictionary codes without interning: ok is false
// if any column is non-ground or was never interned — in which case no
// stored tuple can match, so callers report absence immediately.
func appendProbeKey(dst []byte, t Tuple) ([]byte, bool) {
	for _, v := range t {
		id, ok := term.ProbeID(v)
		if !ok {
			return dst, false
		}
		dst = append(dst,
			byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
			byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst, true
}

// keyBufSize is the stack-side packing buffer: 8 bytes per column
// covers arity ≤ 16 without spilling to the heap.
const keyBufSize = 128

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Index is a relation's hash index on a fixed column list, keyed on
// packed dictionary codes of the projection. A caller that probes the
// same columns many times can hold it (see Relation.Index): it stays
// valid, and sees later inserts, for the relation's lifetime.
//
// The map holds a bucket number rather than the bucket, so adding a
// position to an existing bucket reads the map through the no-copy key
// conversion and allocates no key; only a new bucket stores its key.
// Positions within a bucket ascend (tuples are only appended).
type Index struct {
	r       *Relation
	cols    []int
	bucket  map[string]int // packed projection codes → bucket number
	buckets [][]int        // tuple positions, ascending
}

// add files the tuple at pos under its packed projection key k.
func (ix *Index) add(k []byte, pos int) {
	if b, ok := ix.bucket[string(k)]; ok {
		ix.buckets[b] = append(ix.buckets[b], pos)
		return
	}
	ix.bucket[string(k)] = len(ix.buckets)
	ix.buckets = append(ix.buckets, []int{pos})
}

// appendColsKey appends the key an index (or a memoized distinct
// count) is filed under: the column list in decimal, comma-separated.
// Callers pack it into a stack buffer of colsKeyBufSize, so finding an
// existing index allocates nothing.
func appendColsKey(dst []byte, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

// colsKeyBufSize covers 16 two-digit columns without spilling.
const colsKeyBufSize = 48

// Relation is a set of ground tuples of fixed arity with insertion
// order preserved and incrementally maintained column indexes.
//
// A relation has two lifecycle phases. While unfrozen it is owned by a
// single goroutine (a loader or an evaluation engine) and may be
// mutated freely. Freeze marks it immutable: from then on any number
// of goroutines may read it concurrently — the only remaining internal
// mutations are lazy index construction and memoized distinct counts,
// which idxMu serializes — and Insert panics. Catalog.Snapshot freezes every relation it shares,
// which is what makes copy-on-write database generations safe.
//
// Concurrent reads are also safe on an unfrozen relation during any
// window in which no goroutine mutates it; the parallel semi-naive
// rounds rely on this (workers only read shared relations mid-round
// and write to worker-private staging relations).
type Relation struct {
	name    string
	arity   int
	tuples  []Tuple
	present map[string]struct{}

	// frozen marks the relation immutable (shared between snapshots).
	frozen atomic.Bool
	// idxMu guards indexes and distinct: frozen relations still build
	// indexes lazily on first lookup, possibly from several readers at
	// once, and memoize distinct counts.
	idxMu   sync.RWMutex
	indexes map[string]*Index
	// distinct memoizes DistinctOn per column list, on frozen relations
	// only (nil until the first count).
	distinct map[string]int
}

// New returns an empty relation with the given name and arity.
func New(name string, arity int) *Relation {
	return &Relation{
		name:    name,
		arity:   arity,
		present: make(map[string]struct{}),
		indexes: make(map[string]*Index),
	}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Freeze marks the relation immutable: Insert panics from now on, and
// concurrent readers (including lazy index builds) are safe. Freezing
// is one-way and idempotent.
func (r *Relation) Freeze() { r.frozen.Store(true) }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen.Load() }

// Insert adds the tuple if absent; it reports whether the relation
// grew. It panics on arity mismatch, non-ground tuples, or a frozen
// relation — all engine bugs, not data errors.
func (r *Relation) Insert(t Tuple) bool { return r.insert(t, nil, false) }

// InsertCopy inserts a copy of t unless r or other (nil: none) already
// holds it, and reports whether it did. Only an inserted tuple is
// copied, so t may be a buffer the caller reuses; its key is packed
// once for both membership tests and the insert. other must not be
// mutated concurrently.
func (r *Relation) InsertCopy(t Tuple, other *Relation) bool { return r.insert(t, other, true) }

func (r *Relation) insert(t Tuple, other *Relation, copyT bool) bool {
	if r.frozen.Load() {
		panic(fmt.Sprintf("relation %s/%d: insert into frozen (snapshot-shared) relation", r.name, r.arity))
	}
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s/%d: inserting tuple of width %d", r.name, r.arity, len(t)))
	}
	var kb [keyBufSize]byte
	k, ok := appendIDKey(kb[:0], t)
	if !ok {
		panic(fmt.Sprintf("relation %s: inserting non-ground tuple %s", r.name, t))
	}
	if other != nil {
		if _, dup := other.present[string(k)]; dup {
			return false
		}
	}
	if _, dup := r.present[string(k)]; dup {
		return false
	}
	if copyT {
		t = append(Tuple(nil), t...)
	}
	r.present[string(k)] = struct{}{}
	pos := len(r.tuples)
	r.tuples = append(r.tuples, t)
	var pb [keyBufSize]byte
	for _, idx := range r.indexes {
		pk, _ := appendIDKeyOn(pb[:0], t, idx.cols)
		idx.add(pk, pos)
	}
	return true
}

// InsertAll inserts every tuple of o (which must have equal arity) and
// returns the number of new tuples.
func (r *Relation) InsertAll(o *Relation) int {
	n := 0
	for _, t := range o.tuples {
		if r.Insert(t) {
			n++
		}
	}
	return n
}

// Contains reports whether the tuple is present. It is allocation-free.
func (r *Relation) Contains(t Tuple) bool {
	var kb [keyBufSize]byte
	k, ok := appendProbeKey(kb[:0], t)
	if !ok {
		return false
	}
	_, present := r.present[string(k)]
	return present
}

// Each calls f on every tuple in insertion order without copying the
// tuple slice; it stops early when f returns false. The relation must
// not be mutated during the iteration.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// At returns the i-th tuple in insertion order.
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Index returns (building if needed) the index on cols. Lazy builds
// are the one mutation frozen relations still perform, so the index
// map is read and published under idxMu; the build itself runs outside
// the critical section (tuples are stable: append-only for the single
// owner, immutable once frozen) and the first publication wins.
func (r *Relation) Index(cols []int) *Index {
	var cb [colsKeyBufSize]byte
	ck := appendColsKey(cb[:0], cols)
	r.idxMu.RLock()
	idx, ok := r.indexes[string(ck)]
	r.idxMu.RUnlock()
	if ok {
		return idx
	}
	idx = &Index{r: r, cols: append([]int(nil), cols...), bucket: make(map[string]int)}
	var pb [keyBufSize]byte
	for pos, t := range r.tuples {
		pk, _ := appendIDKeyOn(pb[:0], t, cols)
		idx.add(pk, pos)
	}
	r.idxMu.Lock()
	if existing, ok := r.indexes[string(ck)]; ok {
		idx = existing // another reader won the build race
	} else {
		r.indexes[string(ck)] = idx
	}
	r.idxMu.Unlock()
	return idx
}

// Matches is a view of the tuples one Probe found, in insertion order.
// It copies nothing: it reads the index bucket and the tuple slice in
// place, and later inserts into the relation do not show up in it.
type Matches struct {
	r   *Relation
	pos []int
}

// Len returns the number of matching tuples.
func (m Matches) Len() int { return len(m.pos) }

// At returns the i-th matching tuple.
func (m Matches) At(i int) Tuple { return m.r.tuples[m.pos[i]] }

// Probe finds the tuples whose projection onto the index columns
// equals values. It allocates nothing.
func (ix *Index) Probe(values Tuple) Matches {
	var kb [keyBufSize]byte
	k, ok := appendProbeKey(kb[:0], values)
	if !ok {
		return Matches{} // a never-interned constant matches nothing
	}
	b, ok := ix.bucket[string(k)]
	if !ok {
		return Matches{}
	}
	return Matches{r: ix.r, pos: ix.buckets[b]}
}

// ProbeWindow is Probe restricted to the tuples at insertion positions
// [lo, hi): a semi-naive round reads its delta, and every relation of
// its own recursion, as such a window of one relation. Bucket positions
// ascend, so trimming is two binary searches, and a bucket already
// inside the window costs two comparisons. It allocates nothing.
func (ix *Index) ProbeWindow(values Tuple, lo, hi int) Matches {
	m := ix.Probe(values)
	if n := len(m.pos); n > 0 && m.pos[n-1] >= hi {
		i, _ := slices.BinarySearch(m.pos, hi)
		m.pos = m.pos[:i]
	}
	if len(m.pos) > 0 && m.pos[0] < lo {
		i, _ := slices.BinarySearch(m.pos, lo)
		m.pos = m.pos[i:]
	}
	return m
}

// LookupOn returns the tuples whose projection onto cols equals the
// given values, copied into a new slice. It probes (building if needed)
// the index on cols.
func (r *Relation) LookupOn(cols []int, values Tuple) []Tuple {
	m := r.Index(cols).Probe(values)
	if m.Len() == 0 {
		return nil
	}
	out := make([]Tuple, m.Len())
	for i := range out {
		out[i] = m.At(i)
	}
	return out
}

// DistinctOn returns the number of distinct projections onto cols —
// the statistic the cost model derives join expansion ratios from.
//
// Projecting onto every column, in any order, is the relation itself
// (a relation is a set), so that count is Len. Any other count comes
// from an index already built on cols, or else from one scan through a
// transient set; the scan builds no index, since retaining a full hash
// index for a one-shot aggregate would cost more than the count. On a
// frozen relation the scanned count is memoized per column list: the
// relation can no longer change, so the count cannot go stale, and a
// generation pays at most one scan per (relation, column list). An
// unfrozen relation recounts on every call.
func (r *Relation) DistinctOn(cols []int) int {
	if r.allColumns(cols) {
		return len(r.tuples)
	}
	var cb [colsKeyBufSize]byte
	ck := appendColsKey(cb[:0], cols)
	r.idxMu.RLock()
	idx, indexed := r.indexes[string(ck)]
	n, memo := r.distinct[string(ck)]
	r.idxMu.RUnlock()
	switch {
	case indexed:
		return len(idx.buckets)
	case memo:
		return n
	}
	// Read before the scan: only a count of an immutable relation may be
	// memoized.
	frozen := r.frozen.Load()
	seen := make(map[string]struct{}, len(r.tuples))
	var pb [keyBufSize]byte
	for _, t := range r.tuples {
		pk, _ := appendIDKeyOn(pb[:0], t, cols)
		if _, dup := seen[string(pk)]; !dup {
			seen[string(pk)] = struct{}{}
		}
	}
	if frozen {
		r.idxMu.Lock()
		if r.distinct == nil {
			r.distinct = make(map[string]int)
		}
		r.distinct[string(ck)] = len(seen)
		r.idxMu.Unlock()
	}
	return len(seen)
}

// allColumns reports whether cols lists every column exactly once.
func (r *Relation) allColumns(cols []int) bool {
	if len(cols) != r.arity || r.arity > 64 {
		return false // wider relations just count
	}
	var mask uint64
	for _, c := range cols {
		if c < 0 || c >= r.arity || mask&(1<<c) != 0 {
			return false
		}
		mask |= 1 << c
	}
	return true
}

// Clone returns an independent, unfrozen copy of the relation that the
// caller may mutate freely.
//
// Tuple-sharing contract: the clone shares the Tuple values (and the
// terms inside them) with the original — only the containers (tuple
// slice, presence set) are copied. This aliasing is safe because
// tuples are ground on insertion and term values are never mutated
// anywhere in the system; no caller may mutate a Tuple obtained from a
// relation, cloned or not. Indexes are not copied — the clone rebuilds
// them lazily on first lookup.
func (r *Relation) Clone() *Relation {
	c := New(r.name, r.arity)
	c.tuples = append(make([]Tuple, 0, len(r.tuples)), r.tuples...)
	c.present = make(map[string]struct{}, len(r.present))
	for k := range r.present {
		c.present[k] = struct{}{}
	}
	return c
}

// Select returns the tuples satisfying all constraints, where a
// constraint fixes column i to a ground term. With one or more
// constraints it uses a hash index.
func (r *Relation) Select(constraints map[int]term.Term) *Relation {
	out := New(r.name, r.arity)
	if len(constraints) == 0 {
		for _, t := range r.tuples {
			out.Insert(t)
		}
		return out
	}
	cols := make([]int, 0, len(constraints))
	for c := range constraints {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	values := make(Tuple, len(cols))
	for i, c := range cols {
		values[i] = constraints[c]
	}
	for _, t := range r.LookupOn(cols, values) {
		out.Insert(t)
	}
	return out
}

// Match returns one extension of s per tuple of r that unifies with
// args under s, in insertion order. The ground (under s) arguments
// select candidates through an index; only the rest are unified.
func Match(r *Relation, args []term.Term, s term.Subst) []term.Subst {
	var cols []int
	var vals Tuple
	resolved := make([]term.Term, len(args))
	for i, a := range args {
		ra := s.Resolve(a)
		resolved[i] = ra
		if ra.Ground() {
			cols = append(cols, i)
			vals = append(vals, ra)
		}
	}
	candidates := r.tuples
	if len(cols) > 0 {
		candidates = r.LookupOn(cols, vals)
	}
	var out []term.Subst
	for _, tup := range candidates {
		sol := s.Clone()
		ok := true
		for i, a := range resolved {
			if a.Ground() {
				continue
			}
			if !term.Unify(sol, a, tup[i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, sol)
		}
	}
	return out
}

// Join hash-joins r and o on r.leftCols = o.rightCols and returns the
// concatenated tuples (r's columns then o's columns), probing o's
// index with each tuple of r.
func (r *Relation) Join(name string, o *Relation, leftCols, rightCols []int) *Relation {
	out := New(name, r.arity+o.arity)
	if len(leftCols) != len(rightCols) {
		panic("relation: join column lists differ in length")
	}
	values := make(Tuple, len(leftCols))
	for _, lt := range r.tuples {
		for i, c := range leftCols {
			values[i] = lt[c]
		}
		for _, rt := range o.LookupOn(rightCols, values) {
			joined := make(Tuple, 0, r.arity+o.arity)
			joined = append(joined, lt...)
			joined = append(joined, rt...)
			out.Insert(joined)
		}
	}
	return out
}

// Sorted returns the tuples sorted by term order, for stable output.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := term.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d{", r.name, r.arity)
	for i, t := range r.tuples {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Catalog is a named collection of relations (the EDB plus any derived
// relations an engine materializes).
//
// Catalogs support copy-on-write snapshots: Snapshot returns a new
// catalog sharing every relation with the original after freezing them
// all, and Ensure transparently replaces a frozen relation with a
// private clone the first time this catalog needs to write it. A
// catalog is single-owner while being written; once published (shared
// between goroutines) it must only be read — Freeze/Snapshot enforce
// this at the relation level.
type Catalog struct {
	rels map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]*Relation)} }

// Get returns the relation with the given name, or nil.
func (c *Catalog) Get(name string) *Relation { return c.rels[name] }

// Ensure returns a writable relation with the given name, creating it
// (with the given arity) if absent. It panics if an existing relation
// has a different arity. When the existing relation is frozen (shared
// with a snapshot), Ensure replaces it with a private clone — the
// copy-on-write step — so callers may always Insert into the result.
// Use Get for read-only access: it never copies.
func (c *Catalog) Ensure(name string, arity int) *Relation {
	if r, ok := c.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("catalog: %s exists with arity %d, requested %d", name, r.arity, arity))
		}
		if r.Frozen() {
			r = r.Clone()
			c.rels[name] = r
		}
		return r
	}
	r := New(name, arity)
	c.rels[name] = r
	return r
}

// Names returns the sorted relation names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a catalog sharing every relation with c, after
// freezing them all. The snapshot (and c itself) may then be read by
// any number of goroutines; the first write through either catalog's
// Ensure replaces the touched relation with a private clone, leaving
// the shared one untouched. Snapshot is safe to call concurrently on a
// published (frozen) catalog.
func (c *Catalog) Snapshot() *Catalog {
	out := &Catalog{rels: make(map[string]*Relation, len(c.rels))}
	for n, r := range c.rels {
		r.Freeze()
		out.rels[n] = r
	}
	return out
}

// Freeze marks every relation in the catalog immutable. Publishing a
// catalog for concurrent readers requires freezing it first; Snapshot
// does so implicitly.
func (c *Catalog) Freeze() {
	for _, r := range c.rels {
		r.Freeze()
	}
}

// TotalTuples returns the total tuple count across all relations.
func (c *Catalog) TotalTuples() int {
	n := 0
	for _, r := range c.rels {
		n += r.Len()
	}
	return n
}
