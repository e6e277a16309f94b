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
// Storage is dictionary-encoded: the presence set and every hash index
// are open-addressing tables hashed on the dictionary codes of the
// ground terms (see term.IDOf), which every term carries from its
// construction. A table stores no key, only an int32 per slot; a probe
// compares its key's codes with those of the stored tuple a slot
// names, each a field read. Membership probes (Contains, Index.Probe,
// LookupOn, Select) are allocation-free, and a big integer that was
// never interned short-circuits to "no match" without touching the
// dictionary.
//
// A relation is a frozen, shared base plus a private tail, the layout
// of a log-structured merge tree with two runs. Positions are global,
// base first, so insertion order, At, Each and windowed probes read as
// one run. Clone, the copy-on-write step that makes a database
// generation writable, shares the base by pointer and copies only the
// tail: a frozen relation without a base becomes the clone's base with
// no copy, and once the tail outgrows tailBound of the base's size the
// clone merges the two into a new base instead. A write therefore
// copies O(tail) and, amortized, O(n·batch/tailBound(n)); the base's
// lazily built indexes and distinct counts are shared by every
// generation that holds it. A relation never cloned has no base.
package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"chainsplit/internal/term"
)

// Tuple is an ordered list of ground terms.
type Tuple []term.Term

// AppendIDKey appends the fixed-width (8 bytes per column) dictionary
// codes of every column of t, interning terms on first sight. ok is
// false if any column is not ground. Durable snapshots and WAL fact
// records serialize tuple rows in exactly this format, with a
// dictionary section mapping the non-self-describing IDs back to
// terms.
func AppendIDKey(dst []byte, t Tuple) ([]byte, bool) {
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

// idBufLen sizes the stack-side buffer a key's codes are read into:
// arity ≤ 16 never spills to the heap.
const idBufLen = 16

// appendIDs appends the dictionary codes of t's columns cols (every
// column if cols is nil). A probe reads them with term.ProbeID, so ok
// is false for a non-ground column and, on a probe, for a big integer
// never interned, which no stored tuple can hold.
func appendIDs(dst []term.ID, t Tuple, cols []int, probe bool) ([]term.ID, bool) {
	n := len(cols)
	if cols == nil {
		n = len(t)
	}
	for i := range n {
		c := i
		if cols != nil {
			c = cols[i]
		}
		var id term.ID
		var ok bool
		if probe {
			id, ok = term.ProbeID(t[c])
		} else {
			id, ok = term.IDOf(t[c])
		}
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// hashIDs mixes a key's codes into 64 bits whose low bits pick a slot.
func hashIDs(ids []term.ID) uint64 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// entries names, for each entry of an idTable, the stored tuple whose
// projection is that entry's key.
type entries interface{ tuple(e int) Tuple }

// idTable is an open-addressing hash table over the entries 0..n-1 of
// a dense array: a relation's tuple positions, or an index's buckets.
// A slot holds entry+1, and 0 marks it empty. No key is stored: a
// probe compares its codes with those of the tuple the entry names.
// Probing is linear, and the table doubles before it is 3/4 full.
type idTable []int32

// find returns the entry whose key, the projection of es.tuple(e) onto
// cols, has the codes ids (hashed to h); or -1 and the empty slot where
// that key belongs (-1 too while the table has no slots).
func (t idTable) find(h uint64, ids []term.ID, cols []int, es entries) (e, slot int) {
	if len(t) == 0 {
		return -1, -1
	}
	mask := uint64(len(t) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if t[i] == 0 {
			return -1, int(i)
		}
		if e := int(t[i] - 1); sameIDs(es.tuple(e), cols, ids) {
			return e, int(i)
		}
	}
}

// add files entry n-1 in slot, the empty slot find returned for its
// key. If n entries would fill more than 3/4 of the table it instead
// rebuilds the table twice as large, rehashing every entry's key.
func (t *idTable) add(slot, n int, cols []int, es entries) {
	if 4*n <= 3*len(*t) {
		(*t)[slot] = int32(n)
		return
	}
	nt := make(idTable, max(8, 2*len(*t)))
	mask := uint64(len(nt) - 1)
	var ib [idBufLen]term.ID
	for e := range n {
		ids, _ := appendIDs(ib[:0], es.tuple(e), cols, false)
		i := hashIDs(ids) & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(e + 1)
	}
	*t = nt
}

// sameIDs reports whether t's columns cols (every column if nil) have
// the codes ids.
func sameIDs(t Tuple, cols []int, ids []term.ID) bool {
	for i, want := range ids {
		c := i
		if cols != nil {
			c = cols[i]
		}
		if id, _ := term.IDOf(t[c]); id != want {
			return false
		}
	}
	return true
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Index is a relation's hash index on a fixed column list. A caller
// that probes the same columns many times can hold it (see
// Relation.Index): it stays valid, and sees later inserts, for the
// relation's lifetime.
//
// The table holds bucket numbers, and a bucket's key is the projection
// of its first tuple, so adding a position to an existing bucket
// stores nothing but the position. Positions within a bucket ascend
// (tuples are only appended). An index files the relation's tail; on a
// relation with a base it also holds the base's own (shared) index on
// the same columns, and a probe reads one bucket of each.
type Index struct {
	r       *Relation
	cols    []int
	base    *Index  // the base's index on cols; nil without a base
	table   idTable // bucket numbers, hashed on the projection's codes
	buckets [][]int // tail positions, ascending
}

func (ix *Index) tuple(b int) Tuple { return ix.r.tuples[ix.buckets[b][0]] }

// bucket returns the tail positions filed under the key with codes ids
// (hashed to h), or nil.
func (ix *Index) bucket(h uint64, ids []term.ID) []int {
	if b, _ := ix.table.find(h, ids, ix.cols, ix); b >= 0 {
		return ix.buckets[b]
	}
	return nil
}

// add files the tuple t, stored at pos, under its projection.
func (ix *Index) add(t Tuple, pos int) {
	var ib [idBufLen]term.ID
	ids, _ := appendIDs(ib[:0], t, ix.cols, false)
	b, slot := ix.table.find(hashIDs(ids), ids, ix.cols, ix)
	if b >= 0 {
		ix.buckets[b] = append(ix.buckets[b], pos)
		return
	}
	ix.buckets = append(ix.buckets, []int{pos})
	ix.table.add(slot, len(ix.buckets), ix.cols, ix)
}

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
//
// base, when set, is a frozen relation without a base of its own that
// holds positions 0..base.Len()-1; tuples, present and indexes hold
// the tail, at positions base.Len() on, and name them tail-locally.
type Relation struct {
	name    string
	arity   int
	base    *Relation
	tuples  []Tuple
	present idTable // tail positions, hashed on every column's code

	// frozen marks the relation immutable (shared between snapshots).
	frozen atomic.Bool
	// idxMu guards indexes and distinct: frozen relations still build
	// indexes lazily on first lookup, possibly from several readers at
	// once, and memoize distinct counts.
	idxMu   sync.RWMutex
	indexes []*Index
	// distinct memoizes DistinctOn per column list, on frozen relations
	// only.
	distinct []distinctCount
}

type distinctCount struct {
	cols []int
	n    int
	// set is the scan's table of distinct projections, kept only on a
	// base whose layered relations asked for it: they count the tail
	// projections it does not hold.
	set *distinctSet
}

// New returns an empty relation with the given name and arity.
func New(name string, arity int) *Relation { return &Relation{name: name, arity: arity} }

func (r *Relation) tuple(pos int) Tuple { return r.tuples[pos] }

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.baseLen() + len(r.tuples) }

// baseLen returns the number of positions the base holds (0: none).
func (r *Relation) baseLen() int {
	if r.base == nil {
		return 0
	}
	return len(r.base.tuples)
}

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
// copied, so t may be a buffer the caller reuses; its codes are read
// and hashed once for both membership tests and the insert. other must
// not be mutated concurrently.
func (r *Relation) InsertCopy(t Tuple, other *Relation) bool { return r.insert(t, other, true) }

func (r *Relation) insert(t Tuple, other *Relation, copyT bool) bool {
	if r.frozen.Load() {
		panic(fmt.Sprintf("relation %s/%d: insert into frozen (snapshot-shared) relation", r.name, r.arity))
	}
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s/%d: inserting tuple of width %d", r.name, r.arity, len(t)))
	}
	var ib [idBufLen]term.ID
	ids, ok := appendIDs(ib[:0], t, nil, false)
	if !ok {
		panic(fmt.Sprintf("relation %s: inserting non-ground tuple %s", r.name, t))
	}
	h := hashIDs(ids)
	if other != nil && other.arity == r.arity && other.has(h, ids) {
		return false
	}
	if r.base != nil && r.base.has(h, ids) {
		return false
	}
	pos, slot := r.present.find(h, ids, nil, r)
	if pos >= 0 {
		return false
	}
	if copyT {
		t = append(Tuple(nil), t...)
	}
	r.tuples = append(r.tuples, t)
	r.present.add(slot, len(r.tuples), nil, r)
	for _, idx := range r.indexes {
		idx.add(t, len(r.tuples)-1)
	}
	return true
}

// InsertAll inserts every tuple of o (which must have equal arity) and
// returns the number of new tuples.
func (r *Relation) InsertAll(o *Relation) int {
	n := 0
	o.Each(func(t Tuple) bool {
		if r.Insert(t) {
			n++
		}
		return true
	})
	return n
}

// has reports whether r holds the tuple whose codes are ids, hashed to
// h: in its base or in its tail.
func (r *Relation) has(h uint64, ids []term.ID) bool {
	if b := r.base; b != nil {
		if pos, _ := b.present.find(h, ids, nil, b); pos >= 0 {
			return true
		}
	}
	pos, _ := r.present.find(h, ids, nil, r)
	return pos >= 0
}

// Contains reports whether the tuple is present. It is allocation-free.
func (r *Relation) Contains(t Tuple) bool {
	var ib [idBufLen]term.ID
	ids, ok := appendIDs(ib[:0], t, nil, true)
	if !ok || len(ids) != r.arity {
		return false
	}
	return r.has(hashIDs(ids), ids)
}

// Each calls f on every tuple in insertion order without copying the
// tuple slice; it stops early when f returns false. The relation must
// not be mutated during the iteration.
func (r *Relation) Each(f func(Tuple) bool) {
	if r.base != nil {
		for _, t := range r.base.tuples {
			if !f(t) {
				return
			}
		}
	}
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// At returns the i-th tuple in insertion order.
func (r *Relation) At(i int) Tuple {
	if b := r.base; b != nil {
		if i < len(b.tuples) {
			return b.tuples[i]
		}
		i -= len(b.tuples)
	}
	return r.tuples[i]
}

// indexOn returns the index on cols, or nil. The caller holds idxMu.
func (r *Relation) indexOn(cols []int) *Index {
	for _, idx := range r.indexes {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	return nil
}

// Index returns (building if needed) the index on cols. Lazy builds
// are the one mutation frozen relations still perform, so the index
// list is read and published under idxMu; the build itself runs outside
// the critical section (tuples are stable: append-only for the single
// owner, immutable once frozen) and the first publication wins.
func (r *Relation) Index(cols []int) *Index {
	r.idxMu.RLock()
	idx := r.indexOn(cols)
	r.idxMu.RUnlock()
	if idx != nil {
		return idx
	}
	idx = &Index{r: r, cols: append([]int(nil), cols...)}
	if r.base != nil {
		idx.base = r.base.Index(cols)
	}
	for pos, t := range r.tuples {
		idx.add(t, pos)
	}
	r.idxMu.Lock()
	if existing := r.indexOn(cols); existing != nil {
		idx = existing // another reader won the build race
	} else {
		r.indexes = append(r.indexes, idx)
	}
	r.idxMu.Unlock()
	return idx
}

// Matches is a view of the tuples one Probe found, in insertion order.
// It copies nothing: it reads index buckets and tuple slices in place,
// and later inserts into the relation do not show up in it. pos names
// tuples of r; on a relation with a base, r is the base when the base
// matched, and the tail's matches follow as tpos, tuples of t.
type Matches struct {
	r    *Relation
	pos  []int
	t    *Relation
	tpos []int
}

// Len returns the number of matching tuples.
func (m Matches) Len() int { return len(m.pos) + len(m.tpos) }

// At returns the i-th matching tuple.
func (m Matches) At(i int) Tuple {
	if i < len(m.pos) {
		return m.r.tuples[m.pos[i]]
	}
	return m.t.tuples[m.tpos[i-len(m.pos)]]
}

// Probe finds the tuples whose projection onto the index columns
// equals values. It allocates nothing.
func (ix *Index) Probe(values Tuple) Matches {
	return ix.ProbeWindow(values, 0, math.MaxInt)
}

// ProbeWindow is Probe restricted to the tuples at insertion positions
// [lo, hi): a semi-naive round reads its delta, and every relation of
// its own recursion, as such a window of one relation. Bucket positions
// ascend, so trimming is two binary searches, and a bucket already
// inside the window costs two comparisons. It allocates nothing.
func (ix *Index) ProbeWindow(values Tuple, lo, hi int) Matches {
	var ib [idBufLen]term.ID
	ids, ok := appendIDs(ib[:0], values, nil, true)
	if !ok || len(ids) != len(ix.cols) {
		return Matches{} // a never-interned constant matches nothing
	}
	h := hashIDs(ids)
	if ix.base == nil {
		return Matches{r: ix.r, pos: window(ix.bucket(h, ids), lo, hi)}
	}
	nb := len(ix.base.r.tuples)
	tail := window(ix.bucket(h, ids), lo-nb, hi-nb)
	if pos := window(ix.base.bucket(h, ids), lo, hi); len(pos) > 0 {
		return Matches{r: ix.base.r, pos: pos, t: ix.r, tpos: tail}
	}
	return Matches{r: ix.r, pos: tail}
}

// window trims ascending positions to those in [lo, hi).
func window(pos []int, lo, hi int) []int {
	if n := len(pos); n > 0 && pos[n-1] >= hi {
		i, _ := slices.BinarySearch(pos, hi)
		pos = pos[:i]
	}
	if len(pos) > 0 && pos[0] < lo {
		i, _ := slices.BinarySearch(pos, lo)
		pos = pos[i:]
	}
	return pos
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
// the statistic the cost model derives join expansion ratios from. The
// count is exact.
//
// Projecting onto every column, in any order, is the relation itself
// (a relation is a set), so that count is Len. Any other count comes
// from an index already built on cols, or else from one scan through a
// transient table; the scan builds no index, since retaining a full
// hash index for a one-shot aggregate would cost more than the count.
// On a frozen relation the count is memoized per column list: the
// relation can no longer change, so the count cannot go stale. An
// unfrozen relation recounts on every call.
//
// A relation with a base scans only its tail: its count is the base's
// plus the tail projections the base does not hold. The base answers
// both from its index on cols, if built, or else from a table of its
// distinct projections that it memoizes for the purpose, once for
// every generation that shares it.
func (r *Relation) DistinctOn(cols []int) int {
	if r.allColumns(cols) {
		return r.Len()
	}
	r.idxMu.RLock()
	idx, memo := r.indexOn(cols), r.memo(cols)
	r.idxMu.RUnlock()
	switch {
	case memo != nil:
		return memo.n
	case idx != nil && r.base == nil:
		return len(idx.buckets)
	}
	// Read before the count: only a count of an immutable relation may
	// be memoized.
	frozen := r.frozen.Load()
	var n int
	if r.base != nil {
		held := r.base.projections(cols)
		n = held.size() + r.scanDistinct(cols, held).size()
	} else {
		n = r.scanDistinct(cols, nil).size()
	}
	if frozen {
		r.idxMu.Lock()
		if r.memo(cols) == nil {
			r.distinct = append(r.distinct, distinctCount{cols: slices.Clone(cols), n: n})
		}
		r.idxMu.Unlock()
	}
	return n
}

// memo returns the memoized distinct count on cols, or nil. The caller
// holds idxMu.
func (r *Relation) memo(cols []int) *distinctCount {
	for i := range r.distinct {
		if slices.Equal(r.distinct[i].cols, cols) {
			return &r.distinct[i]
		}
	}
	return nil
}

// projectionSet is the set of a base's distinct projections onto a
// column list: the base's index on it, or a distinctSet.
type projectionSet interface {
	has(h uint64, ids []term.ID) bool
	size() int
}

func (ix *Index) has(h uint64, ids []term.ID) bool { return ix.bucket(h, ids) != nil }
func (ix *Index) size() int                        { return len(ix.buckets) }

// projections returns the distinct projections onto cols of r, a base:
// its index on cols if one is built, or else a table of them, scanned
// once and memoized with the count.
func (r *Relation) projections(cols []int) projectionSet {
	r.idxMu.RLock()
	idx, d := r.indexOn(cols), r.memo(cols)
	var set *distinctSet
	if d != nil {
		set = d.set
	}
	r.idxMu.RUnlock()
	switch {
	case idx != nil:
		return idx
	case set != nil:
		return set
	}
	set = r.scanDistinct(slices.Clone(cols), nil)
	r.idxMu.Lock()
	switch d := r.memo(cols); {
	case d == nil:
		r.distinct = append(r.distinct, distinctCount{cols: set.cols, n: set.size(), set: set})
	case d.set == nil:
		d.set = set
	default:
		set = d.set // another reader won the scan race
	}
	r.idxMu.Unlock()
	return set
}

// distinctSet is a table of the distinct projections onto cols of a
// relation's tail: its entries are the first position of each.
type distinctSet struct {
	r     *Relation
	cols  []int
	reps  []int
	table idTable
}

func (d *distinctSet) tuple(e int) Tuple { return d.r.tuples[d.reps[e]] }

func (d *distinctSet) has(h uint64, ids []term.ID) bool {
	e, _ := d.table.find(h, ids, d.cols, d)
	return e >= 0
}

func (d *distinctSet) size() int { return len(d.reps) }

// scanDistinct collects the distinct projections onto cols of r's tail
// that held (nil: none) does not hold.
func (r *Relation) scanDistinct(cols []int, held projectionSet) *distinctSet {
	d := &distinctSet{r: r, cols: cols}
	var ib [idBufLen]term.ID
	for pos, t := range r.tuples {
		ids, _ := appendIDs(ib[:0], t, cols, false)
		h := hashIDs(ids)
		if held != nil && held.has(h, ids) {
			continue
		}
		if e, slot := d.table.find(h, ids, cols, d); e < 0 {
			d.reps = append(d.reps, pos)
			d.table.add(slot, len(d.reps), cols, d)
		}
	}
	return d
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

// tailScale and minTail set tailBound.
const (
	tailScale = 4
	minTail   = 64
)

// tailBound is the most tuples a tail over a base of n tuples holds
// before the next Clone merges the two. A write of b tuples then copies
// a tail of at most tailBound(n) + b, and a merge's O(n) copy comes
// once per tailBound(n)/b writes, so with a bound of c·√n both costs
// are O(√n) per write at a fixed batch size.
func tailBound(n int) int {
	return max(minTail, int(tailScale*math.Sqrt(float64(n))))
}

// Clone returns an unfrozen relation holding r's tuples in r's order,
// which the caller may mutate freely without r seeing it.
//
// The clone shares r's base and copies only r's tail: its tuple slice
// and presence table, whose slots name tail positions and are copied
// as they are. A frozen relation without a base becomes the clone's
// base, with no copy. Once r's tail holds more than tailBound of its
// base's size, the clone starts instead from a new base that merges
// the two, one O(n) copy per tailBound(n)/b writes of b tuples. The
// tail's built indexes are copied as merge copies the base's — table
// copied, each bucket capped — so the clone's first lookup does not
// re-file its tail, while the base's indexes and distinct counts are
// shared by every relation over it. A clone is made to be written
// (Catalog.Ensure), so its tail gets the headroom append would add at
// the first insert, without a second copy.
//
// Tuple-sharing contract: the clone shares the Tuple values (and the
// terms inside them) with the original. This aliasing is safe because
// tuples are ground on insertion and term values are never mutated
// anywhere in the system; no caller may mutate a Tuple obtained from a
// relation, cloned or not.
func (r *Relation) Clone() *Relation {
	c := &Relation{name: r.name, arity: r.arity, base: r.base}
	switch {
	case r.base == nil && r.Frozen():
		c.base = r
	case r.base != nil && len(r.tuples) > tailBound(len(r.base.tuples)):
		c.base = r.merge()
	default:
		c.tuples = append(make([]Tuple, 0, len(r.tuples)+len(r.tuples)/4+1), r.tuples...)
		c.present = slices.Clone(r.present)
		r.idxMu.RLock()
		for _, ix := range r.indexes {
			c.indexes = append(c.indexes, ix.copyTo(c, ix.base))
		}
		r.idxMu.RUnlock()
	}
	return c
}

// copyTo returns a copy of ix as an index of r over base (the base's
// index on the same columns, or nil). The table is copied and each
// bucket capped at its length, so filing a position into the copy
// reallocates the bucket instead of writing into ix's array.
func (ix *Index) copyTo(r *Relation, base *Index) *Index {
	c := &Index{r: r, cols: ix.cols, base: base, table: slices.Clone(ix.table), buckets: make([][]int, len(ix.buckets))}
	for i, bk := range ix.buckets {
		c.buckets[i] = bk[:len(bk):len(bk)]
	}
	return c
}

// merge returns a new frozen base holding r's base and then its tail.
// Base positions do not move, so the base's presence table and the
// indexes built on it are copied as they are — each bucket capped at
// its length, so filing a tail position reallocates the bucket instead
// of writing into the old base's array — and the tail's tuples are
// filed into them.
func (r *Relation) merge() *Relation {
	b := r.base
	m := &Relation{
		name:    r.name,
		arity:   r.arity,
		tuples:  append(append(make([]Tuple, 0, len(b.tuples)+len(r.tuples)), b.tuples...), r.tuples...),
		present: slices.Clone(b.present),
	}
	b.idxMu.RLock()
	for _, bx := range b.indexes {
		m.indexes = append(m.indexes, bx.copyTo(m, nil))
	}
	b.idxMu.RUnlock()
	var ib [idBufLen]term.ID
	for pos := len(b.tuples); pos < len(m.tuples); pos++ {
		t := m.tuples[pos]
		ids, _ := appendIDs(ib[:0], t, nil, false)
		_, slot := m.present.find(hashIDs(ids), ids, nil, m)
		m.present.add(slot, pos+1, nil, m)
		for _, mx := range m.indexes {
			mx.add(t, pos)
		}
	}
	m.Freeze()
	return m
}

// Select returns the tuples satisfying all constraints, where a
// constraint fixes column i to a ground term. With one or more
// constraints it uses a hash index.
func (r *Relation) Select(constraints map[int]term.Term) *Relation {
	out := New(r.name, r.arity)
	if len(constraints) == 0 {
		out.InsertAll(r)
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

// Join hash-joins r and o on r.leftCols = o.rightCols and returns the
// concatenated tuples (r's columns then o's columns), probing o's
// index with each tuple of r.
func (r *Relation) Join(name string, o *Relation, leftCols, rightCols []int) *Relation {
	out := New(name, r.arity+o.arity)
	if len(leftCols) != len(rightCols) {
		panic("relation: join column lists differ in length")
	}
	values := make(Tuple, len(leftCols))
	r.Each(func(lt Tuple) bool {
		for i, c := range leftCols {
			values[i] = lt[c]
		}
		for _, rt := range o.LookupOn(rightCols, values) {
			joined := make(Tuple, 0, r.arity+o.arity)
			joined = append(joined, lt...)
			joined = append(joined, rt...)
			out.Insert(joined)
		}
		return true
	})
	return out
}

// Sorted returns the tuples sorted by term order, for stable output.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, 0, r.Len())
	if r.base != nil {
		out = append(out, r.base.tuples...)
	}
	out = append(out, r.tuples...)
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
	sep := ""
	r.Each(func(t Tuple) bool {
		b.WriteString(sep)
		b.WriteString(t.String())
		sep = ", "
		return true
	})
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
