package seminaive

import (
	"context"
	"errors"
	"fmt"

	"chainsplit/internal/builtin"
	"chainsplit/internal/everr"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Rule execution. Each rule is compiled once per SCC, in the order
// scheduleBody chose, into a list of steps over an integer-indexed slot
// array that holds one ground term per rule variable. Which variables
// are bound before each step is known statically, so every argument
// compiles to a fixed operation: a constant or an already-bound slot
// becomes part of the index key, a first occurrence binds its slot, a
// repeated variable is checked against its slot, and a compound
// argument is matched one-way against the ground column. Builtins are
// resolved at compile time. Executing a rule therefore clones no
// substitution and resolves no argument per matched tuple.

// pat is a compiled argument term: a constant, a variable slot, or a
// compound whose arguments are pats.
type pat struct {
	op      patOp
	slot    int       // patSlot, patBind, patCheck
	t       term.Term // patConst
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
	stepBuiltin                    // positive builtin: call, read solutions back
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
	// rel is the relation read (stepRel, stepNegRel); nil reads as empty.
	rel *relation.Relation
	// key holds the index columns and their closed patterns.
	keyCols []int
	keyPats []pat
	// cols matches the remaining columns of each tuple in argument
	// order; for stepNegRel they hold the negation's local variables.
	cols []colPat
	// b is the resolved builtin; in lists the slots of the literal's
	// variables bound before the step (the substitution the builtin
	// sees), out those it binds (read back from each solution).
	b       *builtin.Builtin
	in, out []int
}

// compiledRule is one rule as steps over slots.
type compiledRule struct {
	rule    program.Rule
	headKey string
	steps   []step
	// keyWidth is the widest index key or probe tuple of any step.
	keyWidth int
	// vars names each slot; varTerms holds the same names as terms, for
	// building substitutions and reading builtin solutions.
	vars     []string
	varTerms []term.Term
	// head builds the head tuple; headGround is false when some head
	// variable is bound by no body literal.
	head       []pat
	headGround bool
	// deltaKeys maps a body literal index to its predicate key when the
	// literal reads a same-SCC relation (a delta occurrence), else "".
	deltaKeys []string
	// agg is the engine-wide literal-statistics aggregate (nil without
	// Options.Tracer).
	agg *litCounters
}

// compileRule compiles r with its body in the given order. Relations are
// resolved against cat once: during an SCC's rounds the catalog's
// relations are stable (heads were resolved before compiling).
func compileRule(r program.Rule, order []int, cat *relation.Catalog, inSCC map[string]bool) *compiledRule {
	c := &compiledRule{rule: r, headKey: r.Head.Key(), deltaKeys: make([]string, len(r.Body))}
	slots := make(map[string]int)
	bound := make(map[string]bool) // bound before the current step
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = len(c.vars)
			slots[name] = s
			c.vars = append(c.vars, name)
			c.varTerms = append(c.varTerms, term.NewVar(name))
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
				return pat{op: patCheck, slot: s}
			}
			seen[tt.Name] = true
			return pat{op: patBind, slot: s}
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
		st := step{lit: li, atom: lit}
		b := builtin.Lookup(lit.Pred, lit.Arity())
		if b == nil {
			if rel := cat.Get(lit.Pred); rel != nil && rel.Arity() == lit.Arity() {
				st.rel = rel
			}
			if !lit.Negated && inSCC[lit.Key()] {
				c.deltaKeys[li] = lit.Key()
			}
		}
		seen := make(map[string]bool)
		switch {
		case b != nil:
			st.kind, st.b = stepBuiltin, b
			if lit.Negated {
				st.kind = stepNegBuiltin
			}
			for _, v := range term.SortedVarNames(lit.Vars()) {
				if bound[v] {
					st.in = append(st.in, slotOf(v))
				} else {
					st.out = append(st.out, slotOf(v))
				}
			}
		default:
			st.kind = stepRel
			if lit.Negated {
				st.kind = stepNegRel
			}
			for i, a := range lit.Args {
				p := compile(a, seen)
				if p.closed() {
					st.keyCols = append(st.keyCols, i)
					st.keyPats = append(st.keyPats, p)
				} else {
					st.cols = append(st.cols, colPat{col: i, pat: p})
				}
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
	// deltaLit reads delta instead of its full relation (-1: none).
	deltaLit int
	delta    *relation.Relation
	// full is the head's relation, dst the staging relation new head
	// tuples go to.
	full, dst *relation.Relation
	matches   *int64
	lc        *litCounters
	// countDerived attributes staged tuples to lc.derived as they are
	// staged (the serial path; parallel items count at merge time).
	countDerived bool
	key, head    relation.Tuple
	substs       []term.Subst // per step, reused across builtin calls
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
		rel := st.rel
		if st.lit == x.deltaLit {
			rel = x.delta
		}
		if rel == nil || rel.Len() == 0 {
			return nil
		}
		if len(st.keyCols) == 0 {
			for p, n := 0, rel.Len(); p < n; p++ {
				if err := x.match(i, st, rel.At(p)); err != nil {
					return err
				}
			}
			return nil
		}
		if x.indexes[i] == nil {
			x.indexes[i] = rel.Index(st.keyCols)
		}
		m := x.indexes[i].Probe(x.build(st.keyPats))
		for p := 0; p < m.Len(); p++ {
			if err := x.match(i, st, m.At(p)); err != nil {
				return err
			}
		}
		return nil
	case stepNegRel:
		if st.rel != nil && x.holds(i, st) {
			return nil
		}
	case stepBuiltin:
		s := x.subst(i, st)
		sols, err := st.b.Eval(s, st.atom.Args)
		if err != nil {
			if errors.Is(err, builtin.ErrInsufficient) {
				return fmt.Errorf("%w: %s in %s", ErrUnsafe, st.atom.Resolve(s), x.c.rule)
			}
			return err
		}
		if x.lc != nil {
			x.lc.out[st.lit] += int64(len(sols))
		}
		for _, sol := range sols {
			for _, o := range st.out {
				v := sol.Resolve(x.c.varTerms[o])
				if !v.Ground() {
					return fmt.Errorf("%w: %s left %s unbound in %s", ErrUnsafe, st.atom.Resolve(sol), x.c.vars[o], x.c.rule)
				}
				x.slots[o] = v
			}
			if err := x.run(i + 1); err != nil {
				return err
			}
		}
		return nil
	case stepNegBuiltin:
		s := x.subst(i, st)
		sols, err := st.b.Eval(s, st.atom.Args)
		if err != nil {
			return fmt.Errorf("%w: %s in %s", ErrUnsafe, st.atom.Resolve(s), x.c.rule)
		}
		if len(sols) > 0 {
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

// matchCols matches st's non-key columns against tup, binding slots.
func (x *executor) matchCols(st *step, tup relation.Tuple) bool {
	for k := range st.cols {
		if !x.unify(&st.cols[k].pat, tup[st.cols[k].col]) {
			return false
		}
	}
	return true
}

// holds reports whether the relation of step i, a negated literal, has
// a tuple matching it: a membership probe when every argument is
// bound, else a probe on the bound columns (a scan when none is) that
// binds the negation's local variables tuple by tuple.
func (x *executor) holds(i int, st *step) bool {
	if len(st.cols) == 0 {
		return st.rel.Contains(x.build(st.keyPats))
	}
	if len(st.keyCols) == 0 {
		for p, n := 0, st.rel.Len(); p < n; p++ {
			if x.matchCols(st, st.rel.At(p)) {
				return true
			}
		}
		return false
	}
	if x.indexes[i] == nil {
		x.indexes[i] = st.rel.Index(st.keyCols)
	}
	m := x.indexes[i].Probe(x.build(st.keyPats))
	for p := 0; p < m.Len(); p++ {
		if x.matchCols(st, m.At(p)) {
			return true
		}
	}
	return false
}

// unify matches p one-way against the ground term t, binding slots.
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

// value builds the term a closed pattern denotes under the slots.
func (x *executor) value(p *pat) term.Term {
	switch p.op {
	case patConst:
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

// subst refills step i's reusable substitution with the bound variables
// of its literal — all a builtin reads.
func (x *executor) subst(i int, st *step) term.Subst {
	s := x.substs[i]
	if s == nil {
		s = make(term.Subst, len(st.in))
		x.substs[i] = s
	}
	clear(s)
	for _, in := range st.in {
		s[x.c.vars[in]] = x.slots[in]
	}
	return s
}

// emit assembles the head tuple in the reusable buffer and stages a
// copy unless the full or the staging relation already holds it.
func (x *executor) emit() error {
	if x.lc != nil {
		x.lc.fires++
	}
	if !x.c.headGround {
		s := term.NewSubst()
		for i, v := range x.slots {
			if v != nil {
				s[x.c.vars[i]] = v
			}
		}
		head := x.c.rule.Head
		return fmt.Errorf("%w: head %s not ground in %s", ErrUnsafe, head.Resolve(s), head)
	}
	for k := range x.c.head {
		x.head[k] = x.value(&x.c.head[k])
	}
	if x.dst.InsertCopy(x.head, x.full) && x.countDerived && x.lc != nil {
		x.lc.derived++
	}
	return nil
}
