package main

import (
	"hash/fnv"
	"sort"
	"strings"

	"chainsplit"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// tree is the plain-Go image of a generated family: the independent
// oracle sg and scsg answers are checked against. It is built from the
// generated facts, never from the database.
type tree struct {
	id     map[string]int32
	parent []int32 // -1 for a root
	kids   [][]int32
	sibs   [][]int32
	// conn holds the same_country pairs; scsg may only descend through
	// a pair in it.
	conn map[[2]int32]struct{}
}

func newTree(p *program.Program) *tree {
	t := &tree{id: make(map[string]int32), conn: make(map[[2]int32]struct{})}
	for _, f := range p.Facts {
		a, b := t.person(f.Args[0]), t.person(f.Args[1])
		switch f.Pred {
		case "parent":
			t.parent[a] = b
			t.kids[b] = append(t.kids[b], a)
		case "sibling":
			t.sibs[a] = append(t.sibs[a], b)
		case "same_country":
			t.conn[[2]int32{a, b}] = struct{}{}
		}
	}
	return t
}

func (t *tree) person(name term.Term) int32 {
	n := name.(term.Sym).Name
	if i, ok := t.id[n]; ok {
		return i
	}
	i := int32(len(t.parent))
	t.id[n] = i
	t.parent = append(t.parent, -1)
	t.kids = append(t.kids, nil)
	t.sibs = append(t.sibs, nil)
	return i
}

// addChild records a parent(child, parent) fact written after set-up.
func (t *tree) addChild(child, parent string) {
	c, p := t.person(term.NewSym(child)), t.id[parent]
	t.parent[c] = p
	t.kids[p] = append(t.kids[p], c)
}

// walker computes expected answer sets over a tree without allocating,
// so checking every operation does not disturb the allocation metrics.
// One walker per client; the tree itself is only read.
type walker struct {
	t         *tree
	mark      []uint32
	epoch     uint32
	cur, next []int32
	chain     []int32
}

func newWalker(t *tree) *walker { return &walker{t: t} }

// sameGen marks the expected answers of sg(x, Y) — or of scsg(x, Y)
// when viaCountry is set — and returns how many there are. Walking up
// x's ancestor chain and back down mirrors the two rules: the exit rule
// contributes the siblings at each level, the recursive rule the
// children of the level above's answers.
func (w *walker) sameGen(x int32, viaCountry bool) int {
	t := w.t
	if n := len(t.parent); len(w.mark) < n {
		w.mark = append(w.mark, make([]uint32, n-len(w.mark))...)
	}
	w.chain = w.chain[:0]
	for a := x; a >= 0; a = t.parent[a] {
		w.chain = append(w.chain, a)
	}
	w.cur = w.cur[:0]
	for k := len(w.chain) - 1; k >= 0; k-- {
		w.epoch += 2
		w.next = w.next[:0]
		add := func(y int32) {
			if w.mark[y] != w.epoch {
				w.mark[y] = w.epoch
				w.next = append(w.next, y)
			}
		}
		for _, y := range t.sibs[w.chain[k]] {
			add(y)
		}
		if k+1 < len(w.chain) {
			x1 := w.chain[k+1]
			for _, y1 := range w.cur {
				if viaCountry {
					if _, ok := t.conn[[2]int32{x1, y1}]; !ok {
						continue
					}
				}
				for _, y := range t.kids[y1] {
					add(y)
				}
			}
		}
		w.cur, w.next = w.next, w.cur
	}
	return len(w.cur)
}

// check reports whether answers (goal argument vectors, Y in column 1)
// are exactly the set the last sameGen marked: each once, none missing.
func (w *walker) check(answers [][]chainsplit.Term, want int) bool {
	if len(answers) != want {
		return false
	}
	for _, a := range answers {
		s, ok := a[1].(term.Sym)
		if !ok {
			return false
		}
		y, ok := w.t.id[s.Name]
		if !ok || w.mark[y] != w.epoch {
			return false
		}
		w.mark[y] = w.epoch + 1 // seen: a duplicate answer fails
	}
	return true
}

// rendered renders a result's answers sorted, one per line: the form in
// which a follower's answers must be byte-equal to its leader's.
func rendered(res *chainsplit.Result) string {
	lines := make([]string, len(res.Tuples))
	for i, tup := range res.Tuples {
		parts := make([]string, len(tup))
		for j, v := range tup {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// digest is the sorted-answer digest compared across a close/reopen.
func digest(res *chainsplit.Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rendered(res)))
	return h.Sum64()
}
