package seminaive

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"chainsplit/internal/builtin"
	"chainsplit/internal/everr"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Rule execution. Each rule is compiled once per Compiled program, in
// the order scheduleBody chose, into a list of steps over an
// integer-indexed slot array that holds one ground term per rule
// variable. Which variables
// are bound before each step is known statically, so every argument
// compiles to a fixed operation: a constant or an already-bound slot
// becomes part of the index key, a first occurrence binds its slot, a
// repeated variable is checked against its slot, and a compound
// argument is matched one-way against the ground column. Builtins are
// resolved at compile time, and their arguments compile the same way:
// each is built from the slots, and each solution is matched against
// them. Executing a rule therefore clones no substitution and resolves
// no argument per matched tuple.

// pat is a compiled argument term: a constant, a variable slot, or a
// compound whose arguments are pats.
type pat struct {
	op      patOp
	slot    int       // patSlot, patBind, patCheck
	t       term.Term // patConst; the variable for patBind, patCheck
	functor string    // patComp
	args    []pat     // patComp
}

type patOp uint8

const (
	patConst patOp = iota // a ground constant
	patSlot               // a variable bound before the step
	patBind               // a variable's first occurrence: binds its slot
	patCheck              // a variable bound earlier in the same literal
	patComp               // a compound with at least one variable
)

// closed reports whether the pattern's value is known before the step
// runs (constants and variables bound by earlier steps only), so it can
// be built into an index key or a probe tuple.
func (p *pat) closed() bool {
	switch p.op {
	case patConst, patSlot:
		return true
	case patComp:
		for i := range p.args {
			if !p.args[i].closed() {
				return false
			}
		}
		return true
	}
	return false
}

type stepKind uint8

const (
	stepRel        stepKind = iota // positive relation literal: probe and bind
	stepBuiltin                    // positive builtin: call, match its solutions
	stepNegRel                     // \+ relation literal: holds when no tuple matches
	stepNegBuiltin                 // \+ builtin: holds when it has no solution
)

// colPat matches one non-key column of a relation literal.
type colPat struct {
	col int
	pat pat
}

// step is one body literal, compiled.
type step struct {
	kind stepKind
	lit  int // index in the rule body (literal statistics, delta choice)
	atom program.Atom
	// read is the position, among the relations its SCC reads, of the
	// relation a stepRel or stepNegRel reads (-1 for a builtin); a run
	// binds each position to a relation of its catalog, nil reading as
	// empty.
	read int
	// scc is the position of rel's predicate in the SCC being evaluated
	// when a positive literal reads it (its reads are windowed), else -1.
	scc int
	// key holds the index columns and their closed patterns.
	keyCols []int
	keyPats []pat
	// cols matches the remaining columns of each tuple in argument
	// order; for stepNegRel they hold the negation's local variables,
	// and a builtin's hold all its arguments, matched against each
	// solution.
	cols []colPat
	// b is the resolved builtin.
	b *builtin.Builtin
}

// compiledRule is one rule as steps over slots.
type compiledRule struct {
	rule    program.Rule
	headKey string
	steps   []step
	// keyWidth is the widest index key or probe tuple of any step.
	keyWidth int
	// vars names each slot.
	vars []string
	// head builds the head tuple; headGround is false when some head
	// variable is bound by no body literal.
	head       []pat
	headGround bool
	// deltaPreds maps a body literal index to its predicate's position
	// in the SCC when the literal reads a same-SCC relation (a delta
	// occurrence), else -1; headPred is the head's position.
	deltaPreds []int
	headPred   int
}

// compileRule compiles r with its body in the given order; sccPos maps
// each predicate key of the SCC to its position, and readOf numbers the
// relations the SCC's literals read.
func compileRule(r program.Rule, order []int, sccPos map[string]int, readOf func(program.Atom) int) *compiledRule {
	c := &compiledRule{rule: r, headKey: r.Head.Key(), headPred: sccPos[r.Head.Key()], deltaPreds: make([]int, len(r.Body))}
	slots := make(map[string]int)
	bound := make(map[string]bool) // bound before the current step
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = len(c.vars)
			slots[name] = s
			c.vars = append(c.vars, name)
		}
		return s
	}
	// compile turns t into a pat; seen tracks variables already met in
	// the current literal, so repeats become checks.
	var compile func(t term.Term, seen map[string]bool) pat
	compile = func(t term.Term, seen map[string]bool) pat {
		switch tt := t.(type) {
		case term.Var:
			s := slotOf(tt.Name)
			switch {
			case bound[tt.Name]:
				return pat{op: patSlot, slot: s}
			case seen[tt.Name]:
				return pat{op: patCheck, slot: s, t: tt}
			}
			seen[tt.Name] = true
			return pat{op: patBind, slot: s, t: tt}
		case term.Comp:
			if tt.Ground() {
				return pat{op: patConst, t: tt}
			}
			p := pat{op: patComp, functor: tt.Functor, args: make([]pat, len(tt.Args))}
			for i, a := range tt.Args {
				p.args[i] = compile(a, seen)
			}
			return p
		default:
			return pat{op: patConst, t: t}
		}
	}
	for _, li := range order {
		lit := r.Body[li]
		st := step{lit: li, atom: lit, read: -1, scc: -1}
		b := builtin.Lookup(lit.Pred, lit.Arity())
		if b == nil {
			st.read = readOf(lit)
			if p, ok := sccPos[lit.Key()]; ok && !lit.Negated {
				st.scc = p
			}
		}
		c.deltaPreds[li] = st.scc
		st.kind = stepRel
		switch {
		case b != nil && lit.Negated:
			st.kind, st.b = stepNegBuiltin, b
		case b != nil:
			st.kind, st.b = stepBuiltin, b
		case lit.Negated:
			st.kind = stepNegRel
		}
		seen := make(map[string]bool)
		for i, a := range lit.Args {
			switch p := compile(a, seen); {
			case b == nil && p.closed():
				st.keyCols = append(st.keyCols, i)
				st.keyPats = append(st.keyPats, p)
			default:
				st.cols = append(st.cols, colPat{col: i, pat: p})
			}
		}
		c.steps = append(c.steps, st)
		c.keyWidth = max(c.keyWidth, len(st.keyPats))
		for v := range lit.Vars() {
			bound[v] = true
		}
	}
	c.headGround = true
	for v := range r.Head.Vars() {
		if !bound[v] {
			c.headGround = false
		}
	}
	for _, a := range r.Head.Args {
		c.head = append(c.head, compile(a, map[string]bool{}))
	}
	return c
}

// executor runs one work item of a compiled rule. It owns the mutable
// state (slots and scratch buffers), so concurrent work items each use
// their own.
type executor struct {
	c     *compiledRule
	ctx   context.Context
	slots []term.Term
	// rels binds each read position of the SCC to its relation.
	rels []*relation.Relation
	// A round reads each same-SCC relation p only below hi[p], the
	// length it started with, so it never sees its own derivations;
	// deltaLit (-1: none) reads only the delta window [lo[p], hi[p]).
	lo, hi   []int
	deltaLit int
	// dst receives new head tuples: the head's relation itself, or a
	// parallel item's private staging relation, which then skips the
	// tuples full (the head's relation; nil when it is dst) holds.
	dst, full *relation.Relation
	matches   *int64
	lc        *litCounters
	key, head relation.Tuple
	// indexes caches each relation step's index for this item.
	indexes []*relation.Index
}

// run executes the steps from i on; past the last it emits the head.
func (x *executor) run(i int) error {
	if i == len(x.c.steps) {
		return x.emit()
	}
	st := &x.c.steps[i]
	if x.lc != nil {
		x.lc.in[st.lit]++
	}
	switch st.kind {
	case stepRel:
		rel := x.rels[st.read]
		if rel == nil {
			return nil
		}
		lo, hi := 0, rel.Len()
		if st.scc >= 0 {
			hi = x.hi[st.scc]
			if st.lit == x.deltaLit {
				lo = x.lo[st.scc]
			}
		}
		if lo >= hi {
			return nil
		}
		if len(st.keyCols) == 0 {
			for p := lo; p < hi; p++ {
				if err := x.match(i, st, rel.At(p)); err != nil {
					return err
				}
			}
			return nil
		}
		if x.indexes[i] == nil {
			x.indexes[i] = rel.Index(st.keyCols)
		}
		m := x.indexes[i].ProbeWindow(x.build(st.keyPats), lo, hi)
		for p := 0; p < m.Len(); p++ {
			if err := x.match(i, st, m.At(p)); err != nil {
				return err
			}
		}
		return nil
	case stepNegRel:
		if rel := x.rels[st.read]; rel != nil && x.holds(i, st, rel) {
			return nil
		}
	case stepBuiltin, stepNegBuiltin:
		sols, err := x.solve(st)
		if err != nil {
			return err
		}
		for _, sol := range sols {
			if !x.matchCols(st, sol) {
				continue
			}
			if st.kind == stepNegBuiltin {
				return nil
			}
			if x.lc != nil {
				x.lc.out[st.lit]++
			}
			if err := x.run(i + 1); err != nil {
				return err
			}
		}
		if st.kind == stepBuiltin {
			return nil
		}
	}
	// A negated literal held.
	if x.lc != nil {
		x.lc.out[st.lit]++
	}
	return x.run(i + 1)
}

// match counts one enumerated tuple of step i, binds and checks its
// non-key columns, and continues with the next step on success. A
// single round can enumerate a huge join, so cancellation is checked
// every 8192 matches.
func (x *executor) match(i int, st *step, tup relation.Tuple) error {
	*x.matches++
	if *x.matches&8191 == 0 {
		if err := everr.Check(x.ctx); err != nil {
			return err
		}
	}
	if !x.matchCols(st, tup) {
		return nil
	}
	if x.lc != nil {
		x.lc.out[st.lit]++
	}
	return x.run(i + 1)
}

// matchCols matches st's non-key columns against tup, binding slots;
// for a builtin, tup is a solution.
func (x *executor) matchCols(st *step, tup relation.Tuple) bool {
	for k := range st.cols {
		if !x.unify(&st.cols[k].pat, tup[st.cols[k].col]) {
			return false
		}
	}
	return true
}

// holds reports whether rel, the relation of step i, a negated literal,
// has a tuple matching it: a membership probe when every argument is
// bound, else a probe on the bound columns (a scan when none is) that
// binds the negation's local variables tuple by tuple.
func (x *executor) holds(i int, st *step, rel *relation.Relation) bool {
	if len(st.cols) == 0 {
		return rel.Contains(x.build(st.keyPats))
	}
	if len(st.keyCols) == 0 {
		for p, n := 0, rel.Len(); p < n; p++ {
			if x.matchCols(st, rel.At(p)) {
				return true
			}
		}
		return false
	}
	if x.indexes[i] == nil {
		x.indexes[i] = rel.Index(st.keyCols)
	}
	m := x.indexes[i].Probe(x.build(st.keyPats))
	for p := 0; p < m.Len(); p++ {
		if x.matchCols(st, m.At(p)) {
			return true
		}
	}
	return false
}

// unify matches p one-way against t, binding slots: t is ground, or
// an instance of p's term that a negated builtin answered.
func (x *executor) unify(p *pat, t term.Term) bool {
	switch p.op {
	case patBind:
		x.slots[p.slot] = t
		return true
	case patSlot, patCheck:
		return term.Equal(x.slots[p.slot], t)
	case patConst:
		return term.Equal(p.t, t)
	}
	c, ok := t.(term.Comp)
	if !ok || c.Functor != p.functor || len(c.Args) != len(p.args) {
		return false
	}
	for i := range p.args {
		if !x.unify(&p.args[i], c.Args[i]) {
			return false
		}
	}
	return true
}

// value builds the term a pattern denotes under the slots; a variable
// not bound before the step stands for itself.
func (x *executor) value(p *pat) term.Term {
	switch p.op {
	case patConst, patBind, patCheck:
		return p.t
	case patComp:
		args := make([]term.Term, len(p.args))
		for i := range p.args {
			args[i] = x.value(&p.args[i])
		}
		return term.NewComp(p.functor, args...)
	}
	return x.slots[p.slot]
}

// build fills the key buffer from ps.
func (x *executor) build(ps []pat) relation.Tuple {
	key := x.key[:len(ps)]
	for k := range ps {
		key[k] = x.value(&ps[k])
	}
	return key
}

// solve runs the builtin of step st on the literal's arguments built
// from the slots, a variable not bound before the step as itself. The
// builtin's insufficiency, any error of a negated one, and a solution
// of a positive one that is not ground are the rule's unsafety.
func (x *executor) solve(st *step) ([][]term.Term, error) {
	args := make([]term.Term, len(st.cols))
	for k := range st.cols {
		args[k] = x.value(&st.cols[k].pat)
	}
	sols, err := st.b.Solve(args)
	if err != nil && (st.kind == stepNegBuiltin || errors.Is(err, builtin.ErrInsufficient)) {
		return nil, fmt.Errorf("%w: %s in %s", ErrUnsafe, program.Atom{Pred: st.atom.Pred, Args: args, Negated: st.atom.Negated}, x.c.rule)
	}
	if err != nil || st.kind == stepNegBuiltin {
		return sols, err
	}
	for _, sol := range sols {
		var names []string
		for k := range sol {
			names = free(&st.cols[k].pat, sol[k], names)
		}
		if len(names) > 0 {
			return nil, fmt.Errorf("%w: %s left %s unbound in %s", ErrUnsafe, program.Atom{Pred: st.atom.Pred, Args: sol}, slices.Min(names), x.c.rule)
		}
	}
	return sols, nil
}

// free appends to names the variables of p that face a part of t that
// is not ground.
func free(p *pat, t term.Term, names []string) []string {
	if t.Ground() {
		return names
	}
	switch p.op {
	case patBind, patCheck:
		return append(names, p.t.(term.Var).Name)
	case patComp:
		c, ok := t.(term.Comp)
		for i := range p.args {
			if ok && len(c.Args) == len(p.args) {
				names = free(&p.args[i], c.Args[i], names)
			} else {
				names = free(&p.args[i], t, names)
			}
		}
	}
	return names
}

// emit assembles the head tuple in the reusable buffer and stores a
// copy in dst unless dst or full already holds it.
func (x *executor) emit() error {
	if x.lc != nil {
		x.lc.fires++
	}
	for k := range x.c.head {
		x.head[k] = x.value(&x.c.head[k])
	}
	if !x.c.headGround {
		head := x.c.rule.Head
		return fmt.Errorf("%w: head %s not ground in %s", ErrUnsafe, program.Atom{Pred: head.Pred, Args: x.head}, head)
	}
	// A parallel item's derivations are counted when they are merged.
	if x.dst.InsertCopy(x.head, x.full) && x.full == nil && x.lc != nil {
		x.lc.derived++
	}
	return nil
}
