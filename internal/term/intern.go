package term

// Dictionary-encoded term storage: every distinct ground term maps to a
// stable fixed-width ID, assigned on first sight by a process-wide
// concurrent interner. The relation layer hashes tuples, index
// projections and presence probes on these IDs, so no storage hot loop
// builds a key.
//
// The encoding is tagged: small integers carry their value directly in
// the ID (no dictionary entry at all); symbols, strings and
// out-of-range integers intern their text; ground compound terms intern
// a fixed-width encoding of (functor ID, child IDs) — so a compound's
// dictionary key has one 8-byte word per argument regardless of how
// deep the arguments are, and structural identity collapses to ID
// equality. Symbols, strings and ground compounds are hash-consed: they
// intern at construction (NewSym, NewStr, NewComp) and carry their ID,
// so every later ID read is a field access, with no global lookup on
// the read path. Only big integers are looked up at each use.
//
// The dictionary is append-only and process-wide. Entries are never
// evicted — IDs must stay stable while any relation holds them — so its
// memory footprint grows with the number of *distinct* ground terms
// ever interned, not with the number of tuples. See docs/performance.md
// for the sizing discussion.

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// ID is the dictionary code of a ground term. Two ground terms are
// structurally equal iff their IDs are equal. The zero ID is never
// assigned to a compound term, so 0 doubles as Comp's "not yet
// computed" sentinel.
type ID uint64

// ID layout: 3 tag bits, 61 value bits.
const (
	idTagShift = 61
	idValMask  = (uint64(1) << idTagShift) - 1

	tagSmallInt uint64 = 0 // value: biased int in [-(1<<60), 1<<60)
	tagSym      uint64 = 1 // value: symTab code
	tagStr      uint64 = 2 // value: strTab code
	tagComp     uint64 = 3 // value: compTab code
	tagBigInt   uint64 = 4 // value: bigTab code (ints outside small range)

	smallIntBias = int64(1) << 60
)

func makeID(tag uint64, val uint64) ID { return ID(tag<<idTagShift | (val & idValMask)) }

// internShards must be a power of two. Sharding keeps concurrent
// workers (parallel semi-naive rounds, concurrent queries) off a single
// mutex; within a shard the fast path is one RLock-protected map read.
const internShards = 64

type internShard struct {
	mu sync.RWMutex
	m  map[string]uint64
}

// internTable assigns dense codes to byte strings, concurrently.
// Codes start at 1; 0 means "absent" on the probe path.
type internTable struct {
	next   atomic.Uint64
	shards [internShards]internShard
}

func newInternTable() *internTable {
	t := &internTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]uint64)
	}
	return t
}

// fnv1a hashes key for shard selection (not for code assignment).
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// intern returns the code for key, assigning the next code on first
// sight. The read path does not allocate: map lookup through
// string(key) is a no-copy conversion in the runtime.
func (t *internTable) intern(key []byte) uint64 {
	s := &t.shards[fnv1a(key)&(internShards-1)]
	s.mu.RLock()
	code, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		return code
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if code, ok := s.m[string(key)]; ok {
		return code
	}
	code = t.next.Add(1)
	s.m[string(key)] = code
	return code
}

// probe returns the code for key if it has been interned, else 0. It
// never extends the dictionary and never allocates.
func (t *internTable) probe(key []byte) uint64 {
	s := &t.shards[fnv1a(key)&(internShards-1)]
	s.mu.RLock()
	code := s.m[string(key)]
	s.mu.RUnlock()
	return code
}

// size returns the number of interned entries.
func (t *internTable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// The process-wide dictionaries, one per namespace so a symbol "a", a
// string "a" and a big integer rendered "a"-like can never collide.
var (
	symTab  = newInternTable()
	strTab  = newInternTable()
	compTab = newInternTable()
	bigTab  = newInternTable()
)

// SmallInt returns the integer value a small-integer ID encodes
// directly (no dictionary entry exists for such IDs). ok is false for
// every other tag. Durable storage uses this to decide which term IDs
// need dictionary entries at all: small integers are self-describing
// on disk exactly as they are in memory.
func (id ID) SmallInt() (int64, bool) {
	if uint64(id)>>idTagShift != tagSmallInt {
		return 0, false
	}
	return int64(uint64(id)&idValMask) - smallIntBias, true
}

// InternStats reports the dictionary sizes (diagnostics and tests).
type InternStats struct {
	Syms, Strs, Comps, BigInts int
}

// DictStats returns the current sizes of the process-wide term
// dictionaries.
func DictStats() InternStats {
	return InternStats{
		Syms: symTab.size(), Strs: strTab.size(),
		Comps: compTab.size(), BigInts: bigTab.size(),
	}
}

// smallIntID encodes v directly if it fits the 61-bit small range.
func smallIntID(v int64) (ID, bool) {
	if v >= -smallIntBias && v < smallIntBias {
		return makeID(tagSmallInt, uint64(v+smallIntBias)), true
	}
	return 0, false
}

// internComp computes and interns the dictionary code of a ground
// compound: the key is the functor's symbol code followed by one
// 8-byte child ID per argument.
func internComp(c *Comp) ID {
	fid := symTab.intern([]byte(c.Functor))
	buf := make([]byte, 0, 8+8*len(c.Args))
	buf = appendUint64(buf, fid)
	for _, a := range c.Args {
		cid, ok := IDOf(a)
		if !ok {
			return 0
		}
		buf = appendUint64(buf, uint64(cid))
	}
	return makeID(tagComp, compTab.intern(buf))
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// IDOf returns the dictionary code of t, interning it on first sight.
// ok is false iff t is not ground (only ground terms have stable
// identity; relations never store anything else).
func IDOf(t Term) (ID, bool) {
	switch tt := t.(type) {
	case Int:
		if id, ok := smallIntID(tt.V); ok {
			return id, true
		}
		return makeID(tagBigInt, bigTab.intern(strconv.AppendInt(nil, tt.V, 10))), true
	case Sym:
		return tt.id, true
	case Str:
		return tt.id, true
	case Comp:
		if tt.id != 0 {
			return tt.id, true
		}
		if !tt.ground {
			return 0, false
		}
		// Defensive slow path: ground compounds built by NewComp carry
		// their ID; a zero-valued Comp cannot be ground, so this only
		// runs for hand-rolled values in tests.
		return internComp(&tt), true
	default:
		return 0, false
	}
}

// ProbeID returns the code of t without extending the dictionary.
// Constants and ground compounds were interned when they were built,
// so only a big integer can be missing: ok=false means t is not ground
// or is a big integer never interned — and a never-interned term
// cannot be stored in any relation, so index probes can report "no
// match" immediately.
func ProbeID(t Term) (ID, bool) {
	switch tt := t.(type) {
	case Int:
		if id, ok := smallIntID(tt.V); ok {
			return id, true
		}
		code := bigTab.probe(strconv.AppendInt(make([]byte, 0, 20), tt.V, 10))
		if code == 0 {
			return 0, false
		}
		return makeID(tagBigInt, code), true
	case Sym:
		return tt.id, true
	case Str:
		return tt.id, true
	case Comp:
		// Ground compounds intern at construction, so the cached ID is
		// authoritative; its absence means non-ground.
		if tt.id != 0 {
			return tt.id, true
		}
		return 0, false
	default:
		return 0, false
	}
}
