// Package adorn implements binding analysis: adornments (§2.2 of the
// paper), sideways information passing via greedy mode scheduling, and
// the finiteness analysis that decides which chain elements are
// finitely evaluable under a query binding.
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
		buf[i] = 'b'
		for v := range term.VarSet(arg) {
			if !bound[v] {
				buf[i] = 'f'
				break
			}
		}
	}
	return string(buf)
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
	return fmt.Sprintf("%s/%d^%s", pred, arity, ad)
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

// check evaluates finiteness of one pair under the current hypothesis.
func (an *Analysis) check(pred string, arity int, ad string) bool {
	if b := builtin.Lookup(pred, arity); b != nil {
		return b.FiniteUnder(ad)
	}
	key := fmt.Sprintf("%s/%d", pred, arity)
	if !an.idb[key] {
		return true // EDB relations are finite under any adornment
	}
	for _, r := range an.prog.RulesFor(key) {
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

// assumeFinite is the hypothesis lookup used while scheduling: unknown
// pairs are registered optimistically as finite so the fixpoint sweep
// revisits them.
func (an *Analysis) assumeFinite(pred string, arity int, ad string) bool {
	k := Key(pred, arity, ad)
	if v, ok := an.finite[k]; ok {
		return v
	}
	if b := builtin.Lookup(pred, arity); b != nil {
		v := b.FiniteUnder(ad)
		an.finite[k] = v
		return v
	}
	key := fmt.Sprintf("%s/%d", pred, arity)
	if !an.idb[key] {
		an.finite[k] = true
		return true
	}
	an.finite[k] = true // optimistic; swept later
	return true
}

// oracle answers finiteness queries during scheduling.
type oracle func(pred string, arity int, ad string) bool

// scheduleCore is the shared scheduling engine.
//
// Each round picks, in priority order: (0) an evaluable builtin, (1) a
// finitely evaluable non-recursive literal — when connected is set,
// only ones sharing a bound variable (or a ground argument) with the
// binding, so unbound cross-product scans are delayed, (2) a finitely
// evaluable recursive literal, (3) any finitely evaluable non-recursive
// literal (the unconnected fallback). All variables of a scheduled
// literal become bound. Literals scheduled after the first recursive
// literal form the Delayed set.
func (an *Analysis) scheduleCore(r program.Rule, ad string, fin oracle, connected bool) Schedule {
	bound := BoundVarsOfHead(r.Head, ad)
	headKey := r.Head.Key()
	n := len(r.Body)
	done := make([]bool, n)
	var sched Schedule
	recursiveSeen := false
	for len(sched.Order) < n {
		pick := -1
		pickRecursive := false
		for pass := 0; pass < 4 && pick < 0; pass++ {
			for i := 0; i < n; i++ {
				if done[i] {
					continue
				}
				lit := r.Body[i]
				isB := lit.IsBuiltin()
				recursive := !isB && !lit.Negated && an.graph.SameSCC(lit.Key(), headKey)
				litAd := AtomAdornment(lit, bound)
				if lit.Negated {
					// Negation-as-failure is a pure test: evaluable
					// only with every argument bound, schedulable in
					// the builtin pass.
					if pass != 0 || litAd != AllB(lit.Arity()) {
						continue
					}
					pick, pickRecursive = i, false
					break
				}
				switch pass {
				case 0:
					if !isB {
						continue
					}
				case 1:
					if isB || recursive {
						continue
					}
					if connected && !recursiveSeen && !ConnectedTo(lit, bound) {
						continue
					}
				case 2:
					if !recursive {
						continue
					}
				case 3:
					if isB || recursive {
						continue
					}
				}
				if !fin(lit.Pred, lit.Arity(), litAd) {
					continue
				}
				pick, pickRecursive = i, recursive
				break
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if !done[i] {
					sched.Stuck = append(sched.Stuck, i)
				}
			}
			sched.OK = false
			return sched
		}
		done[pick] = true
		sched.Order = append(sched.Order, pick)
		if recursiveSeen && !pickRecursive {
			sched.Delayed = append(sched.Delayed, pick)
		}
		if pickRecursive && !recursiveSeen {
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
// it shares a bound variable or has a ground argument.
func ConnectedTo(lit program.Atom, bound map[string]bool) bool {
	vars := lit.Vars()
	if len(vars) == 0 {
		return true
	}
	for v := range vars {
		if bound[v] {
			return true
		}
	}
	for _, a := range lit.Args {
		if a.Ground() {
			return true
		}
	}
	return false
}

// verified is the oracle that fully verifies IDB finiteness through the
// fixpoint (unlike assumeFinite, which seeds optimistically and is only
// sound inside the fixpoint sweep itself).
func (an *Analysis) verified(pred string, arity int, ad string) bool {
	return an.Finite(pred, arity, ad)
}

// ScheduleRule computes an evaluable ordering of the body of r when
// the head is adorned ad, with every IDB finiteness claim verified.
// Greedy saturation is confluent because evaluability is monotone in
// the bound set. Literals scheduled after the first same-SCC
// (recursive) literal are reported as Delayed: they form the
// delayed-evaluation portion of the chain.
func (an *Analysis) ScheduleRule(r program.Rule, ad string) Schedule {
	return an.scheduleCore(r, ad, an.verified, false)
}

// ScheduleChain is ScheduleRule with connectivity-aware ordering: an
// unconnected non-recursive literal (e.g. sg's parent(Y,Y1), which
// shares no variable with the binding until the recursion returns) is
// delayed rather than evaluated as a cross-product scan. This is the
// schedule the chain compiler and the buffered evaluator use.
func (an *Analysis) ScheduleChain(r program.Rule, ad string) Schedule {
	return an.scheduleCore(r, ad, an.verified, true)
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
		sched := an.scheduleCore(r, ad, an.verified, false)
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

// AllB returns an all-bound adornment of length n.
func AllB(n int) string { return strings.Repeat("b", n) }
