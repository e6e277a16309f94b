// Package adorn implements binding analysis: adornments (§2.2 of the
// paper), the finiteness analysis that decides which chain elements are
// finitely evaluable under a query binding, and the one body order
// every engine uses: Ready says when a literal may run, Order picks a
// rule's next literal (the chain schedule, magic's sideways information
// passing), and top-down and semi-naive take the leftmost Ready one.
//
// A superscript 'b' or 'f' adorns each argument of a predicate to
// indicate bound (finite) or free (possibly infinite). EDB relations
// are finite under any adornment; builtins publish per-mode finiteness
// (package builtin); IDB predicates are analysed by a greatest-fixpoint
// computation over the rules. A body literal that cannot be scheduled
// before the recursive call but can be scheduled after it is a
// *delayed* literal — the paper's delayed-evaluation portion, and the
// reason chain-split evaluation exists.
package adorn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"chainsplit/internal/builtin"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// AtomAdornment returns the adornment string of atom a when exactly
// the variables in bound are bound: position i is 'b' iff every
// variable of the argument is bound (constants are always bound).
func AtomAdornment(a program.Atom, bound map[string]bool) string {
	buf := make([]byte, len(a.Args))
	for i, arg := range a.Args {
		buf[i] = 'f'
		if n, in := varsIn(arg, bound); n == in {
			buf[i] = 'b'
		}
	}
	return string(buf)
}

// varsIn counts the variable occurrences of t, n, and those of them in
// bound, in.
func varsIn(t term.Term, bound map[string]bool) (n, in int) {
	switch t := t.(type) {
	case term.Var:
		if bound[t.Name] {
			return 1, 1
		}
		return 1, 0
	case term.Comp:
		if t.Ground() {
			return 0, 0
		}
		for _, a := range t.Args {
			dn, din := varsIn(a, bound)
			n, in = n+dn, in+din
		}
	}
	return n, in
}

// Occurrences counts, for each variable, the atoms among atoms that
// contain it.
func Occurrences(atoms ...program.Atom) map[string]int {
	occ := make(map[string]int)
	for _, a := range atoms {
		for v := range a.Vars() {
			occ[v]++
		}
	}
	return occ
}

// NegationReady is the one rule for when a negated literal may run:
// once every variable it shares with the rest of its rule or query is
// bound. A variable that occurs in no other atom is local to the
// negation and reads "for no value": \+ e(Y, _) holds when no e tuple
// has Y in its first column. occ counts each variable's atoms (see
// Occurrences), the literal itself among them: over the whole rule
// (head included) when a rule body is ordered, over the goals not yet
// solved when top-down picks its next goal. bound holds the variables
// bound where the literal would run. Ready adds the finiteness test of
// the literal's positive form.
func NegationReady(neg program.Atom, occ map[string]int, bound map[string]bool) bool {
	for v := range neg.Vars() {
		if occ[v] > 1 && !bound[v] {
			return false
		}
	}
	return true
}

// Oracle reports whether the relation pred/arity is finitely evaluable
// under the adornment ad.
type Oracle func(pred string, arity int, ad string) bool

// Ready is the one rule for when a body literal may run with the
// variables in bound bound: a negated literal not before NegationReady
// holds (occ as there), and then a builtin when one of its finite modes
// covers its adornment, a relation when finite accepts its adornment.
// A nil finite accepts every relation: one binds all its variables.
func Ready(lit program.Atom, bound map[string]bool, occ map[string]int, finite Oracle) bool {
	if lit.Negated && !NegationReady(lit, occ, bound) {
		return false
	}
	b := builtin.Lookup(lit.Pred, lit.Arity())
	if b == nil && finite == nil {
		return true
	}
	ad := AtomAdornment(lit, bound)
	if b != nil {
		return b.FiniteUnder(ad)
	}
	return finite(lit.Pred, lit.Arity(), ad)
}

// BoundVarsOfQuery returns the set of variables bound by a query goal:
// none — but the *arguments* that are ground contribute a 'b'. For the
// head of a rule evaluated under adornment ad, the bound variables are
// those occurring in 'b' positions.
func BoundVarsOfHead(head program.Atom, ad string) map[string]bool {
	bound := make(map[string]bool)
	for i, arg := range head.Args {
		if i < len(ad) && ad[i] == 'b' {
			for v := range term.VarSet(arg) {
				bound[v] = true
			}
		}
	}
	return bound
}

// GoalAdornment returns the adornment of a (possibly partially ground)
// query goal: 'b' where the argument is ground.
func GoalAdornment(goal program.Atom) string {
	buf := make([]byte, len(goal.Args))
	for i, arg := range goal.Args {
		if arg.Ground() {
			buf[i] = 'b'
		} else {
			buf[i] = 'f'
		}
	}
	return string(buf)
}

// Key identifies a predicate-adornment pair, e.g. "append/3^bff".
func Key(pred string, arity int, ad string) string {
	return pred + "/" + strconv.Itoa(arity) + "^" + ad
}

// Schedule is the result of mode-scheduling one rule body.
type Schedule struct {
	// Order lists body literal indices in evaluation order. When the
	// rule is recursive, literals scheduled after the first recursive
	// literal form the delayed-evaluation portion.
	Order []int
	// Delayed lists the body literal indices that could only be
	// scheduled after a recursive literal (the delayed portion).
	Delayed []int
	// OK reports whether every literal was scheduled and every head
	// variable in a free position ended up bound. If false, the rule is
	// not finitely evaluable under the given head adornment.
	OK bool
	// Stuck lists the unschedulable literal indices when !OK.
	Stuck []int
	// UnboundHead lists head variables left unbound by the body (each
	// makes the answer set infinite, e.g. partition([], Y, [], [])
	// under ^ffff leaves Y free).
	UnboundHead []string
	// RecAd is the adornment the first recursive literal received, if
	// any ("" when the rule has no schedulable recursive literal).
	RecAd string
}

// Analysis performs finiteness analysis over a program. It memoizes
// predicate-adornment finiteness in a greatest-fixpoint table: pairs
// are assumed finite until a rule check refutes them, and refutations
// propagate until stable.
type Analysis struct {
	prog  *program.Program
	graph *program.DepGraph
	idb   map[string]bool
	// mu guards finite — the analysis' only mutable state — so one
	// Analysis may serve concurrent queries over the same database
	// generation. All mutation funnels through Finite (the fixpoint,
	// including its assumeFinite seeding, runs entirely under mu); the
	// Schedule* entry points only reach finite through Finite itself.
	mu sync.Mutex
	// finite maps Key(pred,arity,ad) → finiteness under the current
	// hypothesis; universe records pairs under analysis.
	finite map[string]bool
}

// NewAnalysis prepares a finiteness analysis of prog (which should be
// rectified: compound arguments hide variables from the scheduler).
func NewAnalysis(prog *program.Program) *Analysis {
	return &Analysis{
		prog:   prog,
		graph:  program.NewDepGraph(prog),
		idb:    prog.IDB(),
		finite: make(map[string]bool),
	}
}

// Graph exposes the dependency graph (shared with callers that need
// recursion classification).
func (an *Analysis) Graph() *program.DepGraph { return an.graph }

// Finite reports whether pred/arity is finitely evaluable under the
// adornment ad: whether the query ?- pred(args) with exactly the 'b'
// positions ground has finitely many answers computable by some
// evaluable scheduling of each rule.
func (an *Analysis) Finite(pred string, arity int, ad string) bool {
	if b := builtin.Lookup(pred, arity); b != nil {
		return b.FiniteUnder(ad)
	}
	if !an.idb[pred+"/"+strconv.Itoa(arity)] {
		return true // EDB relations are finite under any adornment
	}
	an.mu.Lock()
	defer an.mu.Unlock()
	k := Key(pred, arity, ad)
	if v, ok := an.finite[k]; ok {
		return v
	}
	// Seed optimistically and iterate to the greatest fixpoint over the
	// universe of pairs discovered during checking.
	an.finite[k] = true
	for {
		before := len(an.finite)
		changed := false
		// Deterministic sweep order.
		keys := make([]string, 0, len(an.finite))
		for kk := range an.finite {
			keys = append(keys, kk)
		}
		sort.Strings(keys)
		for _, kk := range keys {
			p, ar, a := parseKey(kk)
			v := an.check(p, ar, a)
			if v != an.finite[kk] {
				an.finite[kk] = v
				changed = true
			}
		}
		// Re-sweep while values changed or new pairs were registered
		// optimistically during this sweep (they are still unchecked).
		if !changed && len(an.finite) == before {
			return an.finite[k]
		}
	}
}

// parseKey inverts Key. The table only ever holds keys Key built, so a
// malformed one is an analysis bug.
func parseKey(k string) (pred string, arity int, ad string) {
	caret := strings.LastIndexByte(k, '^')
	if caret < 0 {
		panic(fmt.Sprintf("adorn: malformed pair key %q", k))
	}
	pred, arity, err := program.SplitKey(k[:caret])
	if err != nil {
		panic(fmt.Sprintf("adorn: malformed pair key %q: %v", k, err))
	}
	return pred, arity, k[caret+1:]
}

// check evaluates finiteness of one IDB pair under the current
// hypothesis.
func (an *Analysis) check(pred string, arity int, ad string) bool {
	for _, r := range an.prog.RulesFor(pred + "/" + strconv.Itoa(arity)) {
		// Inside the fixpoint, schedule against the hypothesis table
		// (assumeFinite); the surrounding sweep verifies every
		// optimistic assumption before Finite returns.
		sched := an.scheduleCore(r, ad, an.assumeFinite, false)
		if !sched.OK {
			return false
		}
	}
	return true
}

// assumeFinite is the hypothesis lookup used while scheduling (Ready
// asks it about relations only): unknown IDB pairs are registered
// optimistically as finite so the fixpoint sweep revisits them.
func (an *Analysis) assumeFinite(pred string, arity int, ad string) bool {
	k := Key(pred, arity, ad)
	if v, ok := an.finite[k]; ok {
		return v
	}
	if !an.idb[pred+"/"+strconv.Itoa(arity)] {
		return true // EDB relations are finite under any adornment
	}
	an.finite[k] = true // optimistic; swept later
	return true
}

// Order steps through one rule body in the paper's order: the
// leftmost finitely evaluable literal of the best class, where the
// classes, best first, are an evaluable builtin or ready negation, a
// connected non-recursive literal, a connected recursive literal, any
// non-recursive literal and any recursive literal. A literal is
// connected when it shares a bound variable (or a ground argument) with
// the binding; under the rule policy every literal counts as connected.
// Recursive means in the head's strongly connected component. The
// caller keeps the bound set, so it decides what each literal binds.
type Order struct {
	rule  program.Rule
	fin   Oracle
	chain bool
	occ   map[string]int // built at the first negated literal
	rec   []bool
	done  []bool
}

// Order starts ordering r's body. With chain set, connectivity ranks
// the literals (the chain schedule, magic's binding propagation);
// otherwise it does not (ScheduleRule).
func (an *Analysis) Order(r program.Rule, chain bool) *Order {
	o := &Order{rule: r, fin: an.Finite, chain: chain, rec: make([]bool, len(r.Body)), done: make([]bool, len(r.Body))}
	head := r.Head.Key()
	for i, lit := range r.Body {
		o.rec[i] = !lit.Negated && !lit.IsBuiltin() && an.graph.SameSCC(lit.Key(), head)
	}
	return o
}

// Next picks the body literal to run next when the variables in bound
// are bound, marks it taken and returns its index; -1 when no literal
// left may run.
func (o *Order) Next(bound map[string]bool) int {
	pick, best := -1, 5
	for i, lit := range o.rule.Body {
		if o.done[i] {
			continue
		}
		class := 0
		if !lit.Negated && !lit.IsBuiltin() {
			if best <= 1 {
				continue
			}
			class = 1
			if o.chain && !ConnectedTo(lit, bound) {
				class = 3
			}
			if o.rec[i] {
				class++
			}
		}
		if class >= best {
			continue
		}
		if lit.Negated && o.occ == nil {
			o.occ = Occurrences(append([]program.Atom{o.rule.Head}, o.rule.Body...)...)
		}
		if !Ready(lit, bound, o.occ, o.fin) {
			continue
		}
		pick, best = i, class
		if class == 0 {
			break
		}
	}
	if pick >= 0 {
		o.done[pick] = true
	}
	return pick
}

// Taken reports whether Next has picked body literal i.
func (o *Order) Taken(i int) bool { return o.done[i] }

// scheduleCore runs an Order to the end under the head adornment ad.
// Every variable of a picked literal becomes bound. Literals picked
// after the first recursive literal form the Delayed set.
func (an *Analysis) scheduleCore(r program.Rule, ad string, fin Oracle, chain bool) Schedule {
	bound := BoundVarsOfHead(r.Head, ad)
	o := an.Order(r, chain)
	o.fin = fin
	var sched Schedule
	recursiveSeen := false
	for len(sched.Order) < len(r.Body) {
		pick := o.Next(bound)
		if pick < 0 {
			for i := range r.Body {
				if !o.Taken(i) {
					sched.Stuck = append(sched.Stuck, i)
				}
			}
			return sched
		}
		sched.Order = append(sched.Order, pick)
		rec := o.rec[pick]
		if recursiveSeen && !rec {
			sched.Delayed = append(sched.Delayed, pick)
		}
		if rec && !recursiveSeen {
			recursiveSeen = true
			sched.RecAd = AtomAdornment(r.Body[pick], bound)
		}
		for v := range r.Body[pick].Vars() {
			bound[v] = true
		}
	}
	// Every head variable must be bound at the end: a head variable
	// that no scheduled literal produced ranges over an infinite
	// domain, so the rule's answer set is infinite.
	headVars := term.VarSet(r.Head.Args...)
	for _, v := range term.SortedVarNames(headVars) {
		if !bound[v] {
			sched.UnboundHead = append(sched.UnboundHead, v)
		}
	}
	sched.OK = len(sched.UnboundHead) == 0
	return sched
}

// ConnectedTo reports whether the literal touches the current binding:
// it shares a bound variable, has a ground argument or has none.
func ConnectedTo(lit program.Atom, bound map[string]bool) bool {
	for _, a := range lit.Args {
		if n, in := varsIn(a, bound); n == 0 || in > 0 {
			return true
		}
	}
	return len(lit.Args) == 0
}

// ScheduleRule computes an evaluable ordering of the body of r when
// the head is adorned ad, with every IDB finiteness claim verified.
// Greedy saturation is confluent because evaluability is monotone in
// the bound set. Literals scheduled after the first same-SCC
// (recursive) literal are reported as Delayed: they form the
// delayed-evaluation portion of the chain.
func (an *Analysis) ScheduleRule(r program.Rule, ad string) Schedule {
	return an.scheduleCore(r, ad, an.Finite, false)
}

// ScheduleChain is ScheduleRule with connectivity-aware ordering: an
// unconnected non-recursive literal (e.g. sg's parent(Y,Y1), which
// shares no variable with the binding until the recursion returns) is
// delayed rather than evaluated as a cross-product scan. This is the
// schedule the chain compiler and the buffered evaluator use.
func (an *Analysis) ScheduleChain(r program.Rule, ad string) Schedule {
	return an.scheduleCore(r, ad, an.Finite, true)
}

// Explain reports why pred/arity is (or is not) finitely evaluable
// under ad: for an infinite pair it names, per failing rule, the
// literals no schedule can reach and the head variables left unbound.
func (an *Analysis) Explain(pred string, arity int, ad string) string {
	if an.Finite(pred, arity, ad) {
		return fmt.Sprintf("%s is finitely evaluable", Key(pred, arity, ad))
	}
	if b := builtin.Lookup(pred, arity); b != nil {
		return fmt.Sprintf("builtin %s has no finite mode matching %s (finite modes: %s)",
			pred, ad, strings.Join(b.FiniteModes, ", "))
	}
	key := fmt.Sprintf("%s/%d", pred, arity)
	var parts []string
	for _, r := range an.prog.RulesFor(key) {
		sched := an.scheduleCore(r, ad, an.Finite, false)
		if sched.OK {
			continue
		}
		var why []string
		for _, i := range sched.Stuck {
			lit := r.Body[i]
			why = append(why, fmt.Sprintf("%s is not finitely evaluable in any order", lit))
		}
		for _, v := range sched.UnboundHead {
			why = append(why, fmt.Sprintf("head variable %s is never bound", v))
		}
		parts = append(parts, fmt.Sprintf("rule %q: %s", r, strings.Join(why, "; ")))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("%s is infinitely evaluable", Key(pred, arity, ad))
	}
	return fmt.Sprintf("%s is infinitely evaluable: %s", Key(pred, arity, ad), strings.Join(parts, " | "))
}
