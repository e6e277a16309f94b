package topdown

import (
	"strconv"

	"chainsplit/internal/builtin"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Compiled form. New compiles every rule once, SolveConjunction its
// goals and Compile a rule a client runs in parts, into literals over
// numbered slots: each variable of a rule (or query) is a slot, and
// each literal knows at compile time whether it is cons/3, another
// builtin, or a relation (EDB facts, IDB rules or both).
//
// An activation of a body runs on a frame: a window of the engine's
// term stack holding one binding per slot (nil while unbound). Inside
// a frame a variable is named $m and stands for slot m of the same
// frame; the compiled arguments are such frame terms (a constant, a
// slot's variable, or a compound over them), and so is a binding that
// is not ground. Head matching is unification of the head's frame
// terms with the call's arguments in a fresh frame. Every
// binding is recorded on the engine's trail and undone on
// backtracking, so no substitution is copied per solution. Terms leave
// a frame resolved — a call's arguments and a rule's answers with their
// unbound slots renamed $0, $1, … by first occurrence, and the
// solutions of SolveConjunction under the variables' own names — or as
// the frame itself: Solve copies a solution's frame from its first
// slot to the stack's top, so the $m in its bindings keep their
// meaning, and Resolve reads it.

type litKind uint8

const (
	litRel     litKind = iota // relation: EDB facts and/or IDB rules
	litCons                   // cons/3, unified in the frame
	litBuiltin                // any other builtin, through Builtin.Solve
)

// lit is one body literal, compiled.
type lit struct {
	atom program.Atom // as written: readiness, messages, builtin calls
	kind litKind
	neg  bool
	args []term.Term // frame terms
	// rel holds the predicate's facts and pred its rules; either may be
	// nil (litRel).
	rel  *relation.Relation
	pred *pred
	// indexes caches rel's index per set of ground argument columns.
	indexes []colIndex
	// b is the builtin (litBuiltin).
	b *builtin.Builtin
}

type colIndex struct {
	cols uint64
	idx  *relation.Index
}

// index returns rel's index on the columns set in cols.
func (l *lit) index(cols uint64) *relation.Index {
	for _, ci := range l.indexes {
		if ci.cols == cols {
			return ci.idx
		}
	}
	var cs []int
	for c := range l.args {
		if c < 64 && cols&(1<<c) != 0 {
			cs = append(cs, c)
		}
	}
	idx := l.rel.Index(cs)
	l.indexes = append(l.indexes, colIndex{cols, idx})
	return idx
}

// body is one compiled conjunction — a rule body or a query — with its
// slot names and the memo of its chain-split picks.
type body struct {
	atoms []program.Atom
	lits  []lit
	names []string // the variable each slot stands for
	// narrow bodies (at most 64 literals and 64 slots) key the pick
	// memo on two words: the solved literals and the ground slots.
	narrow    bool
	picks     map[[2]uint64]int
	widePicks map[string]int
}

// Rule is a compiled rule: its head arguments and body share one slot
// numbering.
type Rule struct {
	head []term.Term // frame terms
	body *body
}

// Compile compiles r over the engine's relations and predicates: New
// compiles each rule of the program so, and a client compiles the rules
// it runs in parts with Solve.
func (e *Engine) Compile(r program.Rule) *Rule {
	head, b := e.compile(r.Head.Args, r.Body)
	return &Rule{head: head, body: b}
}

// Head returns the frame terms of r's head arguments.
func (r *Rule) Head() []term.Term { return r.head }

// Args returns the frame terms of the arguments of r's body literal i.
func (r *Rule) Args(i int) []term.Term { return r.body.lits[i].args }

// Var returns the frame variable of r's variable name, or nil if r has
// none of that name.
func (r *Rule) Var(name string) term.Term {
	for s, n := range r.body.names {
		if n == name {
			return ref(s)
		}
	}
	return nil
}

// pred is an IDB predicate: its table keys start with key.
type pred struct {
	key   string
	rules []*Rule
}

// compiler numbers the variables of one rule or query.
type compiler struct {
	e     *Engine
	slots map[string]int
	names []string
}

func (c *compiler) slot(name string) int {
	s, ok := c.slots[name]
	if !ok {
		s = len(c.names)
		c.slots[name] = s
		c.names = append(c.names, name)
	}
	return s
}

// term compiles t into a frame term: each variable becomes the frame
// variable of its slot.
func (c *compiler) term(t term.Term) term.Term {
	switch tt := t.(type) {
	case term.Var:
		return ref(c.slot(tt.Name))
	case term.Comp:
		if tt.Ground() {
			return t
		}
		args := make([]term.Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = c.term(a)
		}
		return term.NewComp(tt.Functor, args...)
	}
	return t
}

func (c *compiler) lit(a program.Atom) lit {
	l := lit{atom: a, neg: a.Negated, args: make([]term.Term, len(a.Args))}
	for i, t := range a.Args {
		l.args[i] = c.term(t)
	}
	switch b := builtin.Lookup(a.Pred, a.Arity()); {
	case b != nil && a.Pred == "cons" && a.Arity() == 3:
		l.kind = litCons
	case b != nil:
		l.kind, l.b = litBuiltin, b
	default:
		if rel := c.e.cat.Get(a.Pred); rel != nil && rel.Arity() == a.Arity() {
			l.rel = rel
		}
		l.pred = c.e.preds[a.Key()]
	}
	return l
}

// body compiles atoms; head, when given, is compiled first, so the
// head's variables take the first slots.
func (e *Engine) compile(head []term.Term, atoms []program.Atom) ([]term.Term, *body) {
	c := &compiler{e: e, slots: make(map[string]int)}
	var hp []term.Term
	for _, t := range head {
		hp = append(hp, c.term(t))
	}
	b := &body{atoms: atoms}
	for _, a := range atoms {
		b.lits = append(b.lits, c.lit(a))
	}
	b.names = c.names
	b.narrow = len(b.lits) <= 64 && len(b.names) <= 64
	if b.narrow {
		b.picks = make(map[[2]uint64]int)
	} else {
		b.widePicks = make(map[string]int)
	}
	return hp, b
}

// refs holds the frame variables $0 to $255 as terms, built once and
// only read afterwards, so concurrent engines share them and naming a
// slot allocates nothing.
var refs = func() []term.Term {
	ts := make([]term.Term, 256)
	for m := range ts {
		ts[m] = term.NewVar("$" + strconv.Itoa(m))
	}
	return ts
}()

// ref returns the variable $m, which names slot m inside a frame and
// the m-th free variable of a call or an answer outside one.
func ref(m int) term.Term {
	if m < len(refs) {
		return refs[m]
	}
	return term.NewVar("$" + strconv.Itoa(m))
}

// slotOf returns m for the variable $m.
func slotOf(v term.Var) int {
	m := 0
	for i := 1; i < len(v.Name); i++ {
		m = m*10 + int(v.Name[i]-'0')
	}
	return m
}

// isRef reports whether v is a frame variable. No source variable
// starts with '$'.
func isRef(v term.Var) bool { return len(v.Name) > 1 && v.Name[0] == '$' }

// bind binds the unbound stack slot idx to t and records it on the trail.
func (e *Engine) bind(idx int, t term.Term) {
	e.stack[idx] = t
	if len(e.trail) == cap(e.trail) {
		e.trail = append(make([]int, 0, max(2*cap(e.trail), 64)), e.trail...)
	}
	e.trail = append(e.trail, idx)
}

// undo unbinds every slot bound since the trail had length mark and
// pops the stack back to top.
func (e *Engine) undo(mark, top int) {
	for _, idx := range e.trail[mark:] {
		e.stack[idx] = nil
	}
	e.trail = e.trail[:mark]
	clear(e.stack[top:])
	e.stack = e.stack[:top]
}

// push appends n unbound slots to the stack.
func (e *Engine) push(n int) {
	if len(e.stack)+n > cap(e.stack) {
		e.stack = append(make([]term.Term, 0, max(2*cap(e.stack), len(e.stack)+n, 64)), e.stack...)
	}
	e.stack = e.stack[:len(e.stack)+n]
}

// walk follows the bindings of frame from t until it reaches a
// non-variable or an unbound slot's variable.
func walk(frame []term.Term, t term.Term) term.Term {
	for {
		v, ok := t.(term.Var)
		if !ok {
			return t
		}
		u := frame[slotOf(v)]
		if u == nil {
			return t
		}
		t = u
	}
}

// Resolve applies frame to t, a frame term of the frame's rule, at
// every depth; unbound slots stay as their variables.
func Resolve(frame []term.Term, t term.Term) term.Term {
	t = walk(frame, t)
	c, ok := t.(term.Comp)
	if !ok || c.Ground() {
		return t
	}
	args := make([]term.Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = Resolve(frame, a)
	}
	return term.NewComp(c.Functor, args...)
}

// walk and resolve are walk and Resolve on the frame at base.
func (e *Engine) walk(base int, t term.Term) term.Term { return walk(e.stack[base:], t) }

func (e *Engine) resolve(base int, t term.Term) term.Term { return Resolve(e.stack[base:], t) }

// ground reports whether t is ground in the frame at base. It builds
// no term.
func (e *Engine) ground(base int, t term.Term) bool {
	switch t := e.walk(base, t).(type) {
	case term.Var:
		return false
	case term.Comp:
		if !t.Ground() {
			for _, a := range t.Args {
				if !e.ground(base, a) {
					return false
				}
			}
		}
	}
	return true
}

// occurs reports whether slot m occurs in t in the frame at base.
func (e *Engine) occurs(base, m int, t term.Term) bool {
	switch t := e.walk(base, t).(type) {
	case term.Var:
		return slotOf(t) == m
	case term.Comp:
		if t.Ground() {
			return false
		}
		for _, a := range t.Args {
			if e.occurs(base, m, a) {
				return true
			}
		}
	}
	return false
}

// bindVar binds the unbound frame variable v to t unless t contains v.
func (e *Engine) bindVar(base int, v term.Var, t term.Term) bool {
	m := slotOf(v)
	if c, ok := t.(term.Comp); ok && !c.Ground() && e.occurs(base, m, c) {
		return false
	}
	e.bind(base+m, t)
	return true
}

// unify unifies two terms of the frame at base, with the occurs check,
// binding the first term's variable when both are unbound. Two ground
// compounds unify iff their dictionary IDs are equal.
func (e *Engine) unify(base int, a, b term.Term) bool {
	a, b = e.walk(base, a), e.walk(base, b)
	if av, ok := a.(term.Var); ok {
		if bv, ok := b.(term.Var); ok && av.Name == bv.Name {
			return true
		}
		return e.bindVar(base, av, b)
	}
	if bv, ok := b.(term.Var); ok {
		return e.bindVar(base, bv, a)
	}
	ac, aok := a.(term.Comp)
	bc, bok := b.(term.Comp)
	if !aok || !bok || ac.Ground() && bc.Ground() {
		return term.Equal(a, b)
	}
	if ac.Functor != bc.Functor || len(ac.Args) != len(bc.Args) {
		return false
	}
	for i := range ac.Args {
		if !e.unify(base, ac.Args[i], bc.Args[i]) {
			return false
		}
	}
	return true
}

// canon returns t resolved in the frame at base with each unbound slot
// renamed $0, $1, … in order of first occurrence; e.seen lists the
// stack positions of the slots renamed so far.
func (e *Engine) canon(base int, t term.Term) term.Term {
	t = e.walk(base, t)
	switch tt := t.(type) {
	case term.Var:
		idx := base + slotOf(tt)
		for j, s := range e.seen {
			if s == idx {
				return ref(j)
			}
		}
		e.seen = append(e.seen, idx)
		return ref(len(e.seen) - 1)
	case term.Comp:
		if tt.Ground() {
			return t
		}
		args := make([]term.Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = e.canon(base, a)
		}
		return term.NewComp(tt.Functor, args...)
	}
	return t
}

// shift renames each variable $j of t, a call argument or an answer,
// to $(n+j): the slot that variable takes in a frame of n slots.
func shift(t term.Term, n int) term.Term {
	switch tt := t.(type) {
	case term.Var:
		return ref(n + slotOf(tt))
	case term.Comp:
		if tt.Ground() {
			return t
		}
		args := make([]term.Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = shift(a, n)
		}
		return term.NewComp(tt.Functor, args...)
	}
	return t
}

// width returns one more than the highest j of a variable $j in ts.
func width(ts []term.Term) int {
	w := 0
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch t := t.(type) {
		case term.Var:
			w = max(w, slotOf(t)+1)
		case term.Comp:
			if !t.Ground() {
				for _, a := range t.Args {
					walk(a)
				}
			}
		}
	}
	for _, t := range ts {
		walk(t)
	}
	return w
}

// adopt returns t, a term of a builtin's solution, as a term of the
// frame at base: a frame variable stays, and any other variable (a
// fresh one a user builtin returned) takes a fresh slot, the same one
// for every occurrence while e.foreign lists it.
func (e *Engine) adopt(base int, t term.Term) term.Term {
	if t.Ground() {
		return t
	}
	switch tt := t.(type) {
	case term.Var:
		if isRef(tt) {
			return t
		}
		for _, f := range e.foreign {
			if f.name == tt.Name {
				return ref(f.slot)
			}
		}
		s := len(e.stack) - base
		e.push(1)
		e.foreign = append(e.foreign, foreignVar{tt.Name, s})
		return ref(s)
	case term.Comp:
		args := make([]term.Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = e.adopt(base, a)
		}
		return term.NewComp(tt.Functor, args...)
	}
	return t
}

// foreignVar is a fresh variable of a builtin's solution given a frame
// slot.
type foreignVar struct {
	name string
	slot int
}
