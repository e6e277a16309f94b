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
// A relation is a prefix of an append-only log: positions [0, Len) of
// the tuples, the presence table and the index postings the log holds.
// Every generation of one writer lineage shares the log, so Clone — the
// copy-on-write step that makes a database generation writable — copies
// nothing: the clone reads the same log at the same length and appends
// to it. A relation reads no position at or past its length, so what
// later generations append (and what an abandoned build appended) never
// shows in it. Readers take no lock: table slots and posting counts are
// written atomically, and a table or posting array that fills up is
// replaced by a larger one while readers keep the one they hold.
//
// Only one relation may append to a log at a time, and which one is
// decided by a compare-and-swap on the log's length, the way append
// decides by capacity whether two slices share an array: an insert at
// position n claims n only while the log is n long. A relation whose
// claim fails (a second clone of one relation, or a clone of a
// generation whose successor's build was abandoned) first copies its
// prefix into a log of its own, once.
//
// A query that writes into a stored relation (Catalog.Ensure on a
// Snapshot) keeps its writes in a private log over the stored
// relation's prefix — its base — and never appends to the shared one,
// so the writer lineage keeps its claim.
package relation

import (
	"fmt"
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

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
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

// A relation's tuples are a head, the positions below chunkSize, and
// chunks of chunkSize after it, a whole number of pages each. The head
// about doubles from firstChunk to chunkSize tuples, each time into a
// new array. A head's or chunk's length never changes and a stored
// tuple never moves, so the relations of one log share them and the
// chunk list's array, and a write costs its batch however many tuples
// the log holds.
const (
	chunkBits  = 11
	chunkSize  = 1 << chunkBits
	chunkMask  = chunkSize - 1
	firstChunk = 4
)

// put stores t at position p, which r's head or chunks have room for
// once grown to it.
func (r *Relation) put(p int, t Tuple) {
	if p < chunkSize {
		if p == len(r.head) {
			// Grow rounds the capacity up to what the allocation holds.
			h := slices.Grow(r.head[:p:p], min(chunkSize, max(firstChunk, 2*p))-p)
			r.head = h[:min(cap(h), chunkSize)]
		}
		r.head[p] = t
		return
	}
	if p>>chunkBits-1 == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Tuple, chunkSize))
	}
	r.chunks[p>>chunkBits-1][p&chunkMask] = t
}

// log is what the relations of one writer lineage share: how many
// positions are claimed, the presence table and the indexes on them.
// Each relation holds its own view of the tuple chunks. An index that a
// reader builds is filed into by the writer's next insert.
type log struct {
	n atomic.Int64 // positions claimed, by Insert's compare-and-swap
	// present is a keys-only index on every column. Tuples are
	// distinct, so key k is position k and it keeps no firsts. Only the
	// log's owner files it.
	present logIndex
	// mu serializes filing into the indexes and building them.
	mu      sync.Mutex
	indexes atomic.Pointer[[]*logIndex]
}

// noKeys is the state of an index that holds no key yet.
var noKeys = &ixState{}

// init makes l an empty log and returns it.
func (l *log) init() *log {
	l.present.ident = true
	l.present.st.Store(noKeys)
	return l
}

// lookup returns the log's index on cols — a full one if full is set,
// else either kind — or nil.
func (l *log) lookup(cols []int, full bool) *logIndex {
	if p := l.indexes.Load(); p != nil {
		for _, li := range *p {
			if (li.full || !full) && slices.Equal(li.cols, cols) {
				return li
			}
		}
	}
	return nil
}

// index returns the log's index on cols (see lookup), building it over
// r's positions if there is none. The writer files later positions.
func (l *log) index(r *Relation, cols []int, full bool) *logIndex {
	if li := l.lookup(cols, full); li != nil {
		return li
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if li := l.lookup(cols, full); li != nil {
		return li // another reader won the build race
	}
	li := newLogIndex(cols, full)
	li.fileTo(r)
	var list []*logIndex
	if p := l.indexes.Load(); p != nil {
		list = append(list, *p...)
	}
	list = append(list, li)
	l.indexes.Store(&list)
	return li
}

// ready files r's positions that li does not yet hold: a reader whose
// prefix reaches past what the writer has filed (an index built by a
// shorter generation) files the rest itself.
func (l *log) ready(li *logIndex, r *Relation) {
	if int(li.filed.Load()) < r.n {
		l.mu.Lock()
		li.fileTo(r)
		l.mu.Unlock()
	}
}

// logIndex is a hash index on cols over a log's positions, shared by
// every relation over the log. Its table holds key numbers: key k was
// first filed at position firsts[k], and a key filed more than once
// lists its positions in more[k]. A keys-only index, which a distinct
// count keeps, has no more. Keys are numbered in the order of their
// first position, so the keys a relation of length n reads are those
// whose first position is below n, a prefix of firsts.
//
// Positions [0, filed) are filed. Only the holder of the log's mu files
// or changes the arrays; readers take no lock (see ixState).
type logIndex struct {
	cols  []int
	full  bool
	ident bool // key k is position k, and firsts stays nil
	filed atomic.Int32
	keys  atomic.Int32 // firsts[0, keys) are set
	st    atomic.Pointer[ixState]
}

func newLogIndex(cols []int, full bool) *logIndex {
	li := &logIndex{cols: slices.Clone(cols), full: full}
	li.st.Store(noKeys)
	return li
}

// ixState is the arrays of a logIndex. A state is replaced, never
// resized in place, and each state has a table of its own, so a slot
// only ever names a key whose first position the state's firsts holds.
// firsts and more have room past keys, written only by the mu holder
// before it publishes the key.
type ixState struct {
	table  []int32 // key+1 per occupied slot; read and written atomically
	firsts []int32
	more   []atomic.Pointer[postings] // nil for a keys-only index
}

// postings are the positions of a key filed more than once, ascending:
// pos[0, n). pos is never resized: a full one is replaced by a copy
// twice as long.
type postings struct {
	n   atomic.Int32
	pos []int32
}

// find returns the key with codes ids (hashed to h) among those r can
// read, or -1 and the empty slot where it belongs (-1 while the table
// has no slots).
func (s *ixState) find(r *Relation, h uint64, ids []term.ID, cols []int) (k, slot int) {
	if len(s.table) == 0 {
		return -1, -1
	}
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := atomic.LoadInt32(&s.table[i])
		if v == 0 {
			return -1, int(i)
		}
		f := int(v - 1)
		if s.firsts != nil {
			f = int(s.firsts[f])
		}
		if f < r.n && sameIDs(r.tuple(f), cols, ids) {
			return int(v - 1), int(i)
		}
	}
}

// fileTo files r's positions from filed on. The caller holds the log's
// mu, or owns li outright.
func (li *logIndex) fileTo(r *Relation) {
	filed := int(li.filed.Load())
	for p := filed; p < r.n; p++ {
		li.file(r, p)
	}
	if r.n > filed {
		li.filed.Store(int32(r.n))
	}
}

// file files r's position p under its projection.
func (li *logIndex) file(r *Relation, p int) {
	var ib [idBufLen]term.ID
	ids, _ := appendIDs(ib[:0], r.tuple(p), li.cols, false)
	li.fileKey(r, p, hashIDs(ids), ids)
}

// fileKey files r's position p, whose projection has the codes ids
// (hashed to h).
func (li *logIndex) fileKey(r *Relation, p int, h uint64, ids []term.ID) {
	s := li.st.Load()
	k, slot := s.find(r, h, ids, li.cols)
	if k < 0 {
		li.newKey(r, s, slot, p, h, ids)
	} else if s.more != nil {
		s.add(k, p)
	}
}

// newKey files r's position p under a new key with codes ids (hashed to
// h), whose slot in s, the current state, find returned.
func (li *logIndex) newKey(r *Relation, s *ixState, slot, p int, h uint64, ids []term.ID) {
	k := int(li.keys.Load())
	if !li.ident && k == len(s.firsts) || 4*(k+1) > 3*len(s.table) {
		s = li.grow(r, s, k)
		_, slot = s.find(r, h, ids, li.cols)
	}
	if !li.ident {
		s.firsts[k] = int32(p)
	}
	li.keys.Store(int32(k + 1))
	atomic.StoreInt32(&s.table[slot], int32(k+1))
}

// add files position p under key k, which already has positions.
func (s *ixState) add(k, p int) {
	pp := s.more[k].Load()
	if pp == nil {
		pp = &postings{pos: make([]int32, 4)}
		pp.pos[0], pp.pos[1] = s.firsts[k], int32(p)
		pp.n.Store(2)
		s.more[k].Store(pp)
		return
	}
	n := int(pp.n.Load())
	if n == len(pp.pos) {
		np := &postings{pos: make([]int32, 2*n)}
		copy(np.pos, pp.pos)
		np.pos[n] = int32(p)
		np.n.Store(int32(n + 1))
		s.more[k].Store(np)
		return
	}
	pp.pos[n] = int32(p)
	pp.n.Store(int32(n + 1))
}

// grow publishes and returns a state with room for key k: a new table,
// twice as large if k+1 keys would fill more than 3/4 of the old one,
// with keys [0, k) refiled, and firsts and more twice as long if k is
// their length.
func (li *logIndex) grow(r *Relation, s *ixState, k int) *ixState {
	ns := &ixState{firsts: s.firsts, more: s.more}
	if !li.ident && k == len(s.firsts) {
		ns.firsts = make([]int32, max(8, 2*k))
		copy(ns.firsts, s.firsts)
		if li.full {
			ns.more = make([]atomic.Pointer[postings], len(ns.firsts))
			for i := range k {
				ns.more[i].Store(s.more[i].Load())
			}
		}
	}
	size := max(8, len(s.table))
	for 4*(k+1) > 3*size {
		size *= 2
	}
	ns.table = make([]int32, size)
	mask := uint64(size - 1)
	var ib [idBufLen]term.ID
	for j := range k {
		f := j
		if ns.firsts != nil {
			f = int(ns.firsts[j])
		}
		ids, _ := appendIDs(ib[:0], r.tuple(f), li.cols, false)
		i := hashIDs(ids) & mask
		for ns.table[i] != 0 {
			i = (i + 1) & mask
		}
		ns.table[i] = int32(j + 1)
	}
	li.st.Store(ns)
	return ns
}

// bucket returns, ascending, the positions filed under the key with
// codes ids (hashed to h), or nil: every one r can read, and perhaps
// later ones past r's length.
func (li *logIndex) bucket(r *Relation, h uint64, ids []term.ID) []int32 {
	r.l.ready(li, r)
	s := li.st.Load()
	k, _ := s.find(r, h, ids, li.cols)
	switch {
	case k < 0:
		return nil
	case s.more != nil:
		if pp := s.more[k].Load(); pp != nil {
			return pp.pos[:pp.n.Load()]
		}
	}
	return s.firsts[k : k+1]
}

// count returns the number of keys among r's positions.
func (li *logIndex) count(r *Relation) int {
	r.l.ready(li, r)
	k := int(li.keys.Load())
	return search(li.st.Load().firsts[:k], r.n)
}

// has reports whether r holds the key with codes ids (hashed to h). The
// caller has made li ready for r (count does; the presence table always
// is).
func (li *logIndex) has(r *Relation, h uint64, ids []term.ID) bool {
	k, _ := li.st.Load().find(r, h, ids, li.cols)
	return k >= 0
}

// search returns the number of ascending positions below x.
func search(pos []int32, x int) int {
	i, j := 0, len(pos)
	for i < j {
		m := int(uint(i+j) >> 1)
		if int(pos[m]) < x {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// window trims ascending positions to those in [lo, hi).
func window(pos []int32, lo, hi int) []int32 {
	if n := len(pos); n > 0 && int(pos[n-1]) >= hi {
		pos = pos[:search(pos, hi)]
	}
	if len(pos) > 0 && int(pos[0]) < lo {
		pos = pos[search(pos, lo):]
	}
	return pos
}

// Index is a relation's hash index on a fixed column list. A caller
// that probes the same columns many times can hold it (see
// Relation.Index): it stays valid, and sees later inserts, for the
// relation's lifetime.
//
// It reads the index its relation's log keeps on the columns, bounded
// by the relation's length; on a relation with a base, also the base's
// log's index, and a probe reads one bucket of each.
type Index struct {
	r    *Relation
	cols []int
	li   *logIndex // r's log's index on cols
	base *logIndex // r.base's log's index on cols; nil without a base
}

// Relation is a set of ground tuples of fixed arity with insertion
// order preserved and incrementally maintained column indexes.
//
// A relation has two lifecycle phases. While unfrozen it is owned by a
// single goroutine (a loader or an evaluation engine) and may be
// mutated freely. Freeze marks it immutable: from then on any number
// of goroutines may read it concurrently — lazy index builds are the
// one remaining mutation, serialized by the log — and Insert panics.
// Catalog.Snapshot freezes every relation it shares, which is what
// makes copy-on-write database generations safe.
//
// Concurrent reads are also safe on an unfrozen relation during any
// window in which no goroutine mutates it; the parallel semi-naive
// rounds rely on this (workers only read shared relations mid-round
// and write to worker-private staging relations).
type Relation struct {
	name  string
	arity int
	// base, when set, is a frozen relation without a base of its own
	// that holds positions [0, base.Len()); the log holds the positions
	// after them, numbered from 0. Only a query's write into a stored
	// relation makes one (Catalog.Ensure on a Snapshot).
	base   *Relation
	l      *log
	n      int       // the log's positions [0, n) are this relation's
	head   []Tuple   // the log's tuples below chunkSize, as of n
	chunks [][]Tuple // and from chunkSize on

	// frozen marks the relation immutable (shared between snapshots).
	frozen atomic.Bool
	// idxMu guards indexes, which frozen relations still add to lazily.
	idxMu   sync.Mutex
	indexes []*Index
	// own is the log of a relation made by New, allocated with it.
	own log
}

// New returns an empty relation with the given name and arity.
func New(name string, arity int) *Relation {
	r := &Relation{name: name, arity: arity}
	r.l = r.own.init()
	return r
}

// tuple returns the tuple at the log's position p.
func (r *Relation) tuple(p int) Tuple {
	if p < chunkSize {
		return r.head[p]
	}
	return r.chunks[p>>chunkBits-1][p&chunkMask]
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.baseLen() + r.n }

// baseLen returns the number of positions the base holds (0: none).
func (r *Relation) baseLen() int {
	if r.base == nil {
		return 0
	}
	return r.base.n
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
	if b := r.base; b != nil && b.l.present.has(b, h, ids) {
		return false
	}
	s := r.l.present.st.Load()
	k, slot := s.find(r, h, ids, nil)
	if k >= 0 {
		return false
	}
	if copyT {
		t = append(Tuple(nil), t...)
	}
	if !r.l.n.CompareAndSwap(int64(r.n), int64(r.n)+1) {
		// Another relation has appended past r's prefix.
		r.detach()
		r.l.n.Store(int64(r.n) + 1)
		s = r.l.present.st.Load()
		_, slot = s.find(r, h, ids, nil)
	}
	p := r.n
	r.put(p, t)
	r.n++
	r.l.present.newKey(r, s, slot, p, h, ids)
	if ixs := r.l.indexes.Load(); ixs != nil {
		r.l.mu.Lock()
		for _, li := range *ixs {
			li.fileTo(r)
		}
		r.l.mu.Unlock()
	}
	return true
}

// detach moves r onto a log of its own holding a copy of its prefix,
// refiled in a new presence table and in new indexes on the column
// lists the shared log indexes. A relation pays this one O(n) copy when
// another relation has appended past its prefix.
func (r *Relation) detach() {
	old := r.l
	r.l = new(log).init()
	r.l.n.Store(int64(r.n))
	c := &Relation{}
	for p := range r.n {
		c.put(p, r.tuple(p))
	}
	r.head, r.chunks = c.head, c.chunks
	for p := range r.n {
		r.l.present.file(r, p)
	}
	if ixs := old.indexes.Load(); ixs != nil {
		for _, li := range *ixs {
			r.l.index(r, li.cols, li.full)
		}
	}
	r.idxMu.Lock()
	for _, ix := range r.indexes {
		ix.li = r.l.index(r, ix.cols, true)
	}
	r.idxMu.Unlock()
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
// h: in its base or in its log.
func (r *Relation) has(h uint64, ids []term.ID) bool {
	if b := r.base; b != nil && b.l.present.has(b, h, ids) {
		return true
	}
	return r.l.present.has(r, h, ids)
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
	if b := r.base; b != nil && !b.each(f) {
		return
	}
	r.each(f)
}

// each calls f on the tuples of r's log, and reports whether f asked
// for them all.
func (r *Relation) each(f func(Tuple) bool) bool {
	for _, t := range r.head[:min(len(r.head), r.n)] {
		if !f(t) {
			return false
		}
	}
	for c, p := 0, chunkSize; p < r.n; c, p = c+1, p+chunkSize {
		for _, t := range r.chunks[c][:min(chunkSize, r.n-p)] {
			if !f(t) {
				return false
			}
		}
	}
	return true
}

// At returns the i-th tuple in insertion order, for i below Len.
func (r *Relation) At(i int) Tuple {
	if b := r.base; b != nil {
		if i < b.n {
			return b.tuple(i)
		}
		i -= b.n
	}
	return r.tuple(i)
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

// Index returns the index on cols, building the log's if needed. Lazy
// builds are the one mutation frozen relations still perform: the log
// serializes them, and the first publication wins.
func (r *Relation) Index(cols []int) *Index {
	r.idxMu.Lock()
	idx := r.indexOn(cols)
	r.idxMu.Unlock()
	if idx != nil {
		return idx
	}
	idx = &Index{r: r, cols: slices.Clone(cols), li: r.l.index(r, cols, true)}
	if b := r.base; b != nil {
		idx.base = b.l.index(b, cols, true)
	}
	r.idxMu.Lock()
	if existing := r.indexOn(cols); existing != nil {
		idx = existing // another reader won the race
	} else {
		r.indexes = append(r.indexes, idx)
	}
	r.idxMu.Unlock()
	return idx
}

// Matches is a view of the tuples one Probe found, in insertion order.
// It copies nothing: it reads index postings and tuple chunks in place,
// and later inserts into the relation do not show up in it. apos are
// positions of a's log; on a relation with a base, a is the base when
// the base matched, and the relation's own matches follow as bpos, of
// b's log.
type Matches struct {
	a    *Relation
	apos []int32
	b    *Relation
	bpos []int32
}

// Len returns the number of matching tuples.
func (m Matches) Len() int { return len(m.apos) + len(m.bpos) }

// At returns the i-th matching tuple.
func (m Matches) At(i int) Tuple {
	if i < len(m.apos) {
		return m.a.tuple(int(m.apos[i]))
	}
	return m.b.tuple(int(m.bpos[i-len(m.apos)]))
}

// Probe finds the tuples whose projection onto the index columns
// equals values. It allocates nothing.
func (ix *Index) Probe(values Tuple) Matches {
	return ix.ProbeWindow(values, 0, ix.r.Len())
}

// ProbeWindow is Probe restricted to the tuples at insertion positions
// [lo, hi): a semi-naive round reads its delta, and every relation of
// its own recursion, as such a window of one relation. Postings ascend,
// so trimming is two binary searches, and a bucket already inside the
// window costs two comparisons. It allocates nothing.
func (ix *Index) ProbeWindow(values Tuple, lo, hi int) Matches {
	var ib [idBufLen]term.ID
	ids, ok := appendIDs(ib[:0], values, nil, true)
	if !ok || len(ids) != len(ix.cols) {
		return Matches{} // a never-interned constant matches nothing
	}
	h := hashIDs(ids)
	r := ix.r
	b := r.base
	if b == nil {
		return Matches{a: r, apos: window(ix.li.bucket(r, h, ids), lo, min(hi, r.n))}
	}
	own := window(ix.li.bucket(r, h, ids), lo-b.n, min(hi-b.n, r.n))
	if pos := window(ix.base.bucket(b, h, ids), lo, min(hi, b.n)); len(pos) > 0 {
		return Matches{a: b, apos: pos, b: r, bpos: own}
	}
	return Matches{a: r, apos: own}
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
// (a relation is a set), so that count is Len. Any other count reads
// the log's index on cols: a built one, or else a keys-only index — a
// table of the distinct projections and the position each first
// appears at, with no postings — that the count builds once for the
// log. The writer keeps either up to date, so every generation counts
// by one binary search over the keys' first positions.
//
// A relation with a base counts the base's keys that way, plus the
// projections of its own positions the base does not hold, scanned.
func (r *Relation) DistinctOn(cols []int) int {
	if r.allColumns(cols) {
		return r.Len()
	}
	b := r.base
	if b == nil {
		return r.l.index(r, cols, false).count(r)
	}
	held := b.l.index(b, cols, false)
	n := held.count(b)
	own := newLogIndex(cols, false)
	var ib [idBufLen]term.ID
	for p := range r.n {
		ids, _ := appendIDs(ib[:0], r.tuple(p), cols, false)
		if !held.has(b, hashIDs(ids), ids) {
			own.file(r, p)
		}
	}
	return n + int(own.keys.Load())
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

// Clone returns an unfrozen relation holding r's tuples in r's order,
// which the caller may mutate freely without r seeing it. It copies
// nothing: the clone reads r's log at r's length, and its first insert
// claims the log's next position. If another relation has claimed it
// first — r is not the longest relation over its log, or a second clone
// of r wrote first — that insert copies the clone's prefix into a log
// of its own (O(n), once). So a writer lineage, which clones each
// generation once, writes in O(batch) however large the relation.
//
// Tuple-sharing contract: the clone shares the Tuple values (and the
// terms inside them) with the original. This aliasing is safe because
// tuples are ground on insertion and term values are never mutated
// anywhere in the system; no caller may mutate a Tuple obtained from a
// relation, cloned or not.
func (r *Relation) Clone() *Relation {
	return &Relation{name: r.name, arity: r.arity, base: r.base, l: r.l, n: r.n, head: r.head, chunks: r.chunks}
}

// over returns a writable relation holding the tuples of r, which is
// frozen, whose inserts go to a log of its own: r becomes its base,
// with nothing copied, or if r has a base, it shares that and copies
// r's own positions.
func (r *Relation) over() *Relation {
	if r.base == nil {
		c := New(r.name, r.arity)
		c.base = r
		return c
	}
	c := r.Clone()
	c.detach()
	return c
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
	r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
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
// Catalogs support copy-on-write snapshots: Snapshot and Next return a
// new catalog sharing every relation with the original after freezing
// them all, and Ensure transparently replaces a frozen relation with a
// writable one the first time this catalog needs to write it. A
// catalog is single-owner while being written; once published (shared
// between goroutines) it must only be read — Freeze/Snapshot enforce
// this at the relation level.
type Catalog struct {
	rels map[string]*Relation
	// next marks a catalog of the writer lineage (see Next): Ensure
	// clones a frozen relation onto its log rather than over it.
	next bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]*Relation)} }

// Get returns the relation with the given name, or nil.
func (c *Catalog) Get(name string) *Relation { return c.rels[name] }

// Ensure returns a writable relation with the given name, creating it
// (with the given arity) if absent. It panics if an existing relation
// has a different arity. When the existing relation is frozen (shared
// with a snapshot), Ensure replaces it with a writable one — the
// copy-on-write step — so callers may always Insert into the result:
// on a catalog from Next, its Clone, which appends to the shared log;
// on any other catalog, a relation whose writes go to a private log
// over the frozen one's prefix, so a query's writes never take the log
// from the writer lineage. Neither copies the stored tuples. Use Get
// for read-only access.
func (c *Catalog) Ensure(name string, arity int) *Relation {
	if r, ok := c.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("catalog: %s exists with arity %d, requested %d", name, r.arity, arity))
		}
		if r.Frozen() {
			if c.next {
				r = r.Clone()
			} else {
				r = r.over()
			}
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
// any number of goroutines; the first write through the snapshot's
// Ensure replaces the touched relation with a writable one over a
// private log (see Ensure), leaving the shared one and its log
// untouched. Snapshot is safe to call concurrently on a published
// (frozen) catalog.
func (c *Catalog) Snapshot() *Catalog {
	out := &Catalog{rels: make(map[string]*Relation, len(c.rels))}
	for n, r := range c.rels {
		r.Freeze()
		out.rels[n] = r
	}
	return out
}

// Next is Snapshot for the next generation of a writer lineage: its
// Ensure clones a frozen relation onto the relation's log (see Clone),
// so the generation it builds costs the tuples written. Only the
// writer — the one goroutine that builds each generation from the last
// — may call it.
func (c *Catalog) Next() *Catalog {
	out := c.Snapshot()
	out.next = true
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
