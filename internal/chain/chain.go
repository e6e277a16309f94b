// Package chain compiles (rectified) linear recursions into the
// paper's chain form: for each recursive rule, the non-recursive body
// literals are grouped into *chain generating paths* (CGPs) — maximal
// sets of literals connected through shared variables — and, given a
// query adornment, each CGP is partitioned into an immediately
// evaluable portion and a delayed-evaluation portion (the chain-split).
//
// Example (the paper's scsg, Example 1.2): the recursive rule
//
//	scsg(X, Y) :- parent(X, X1), parent(Y, Y1),
//	              same_country(X1, Y1), scsg(X1, Y1).
//
// has ONE chain generating path ⟨parent, same_country, parent⟩ because
// same_country connects the two parent literals; sg (Example 1.1) has
// TWO, because nothing links parent(X,X1) to parent(Y,Y1). Chain-split
// evaluation of scsg under ^bf splits that single path after
// parent(X, X1).
package chain

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"chainsplit/internal/adorn"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// Path is one chain generating path: indices into the rule body of the
// connected non-recursive literals, in body order.
type Path struct {
	Literals []int
}

// RecRule is one recursive rule of a compiled recursion.
type RecRule struct {
	Rule program.Rule
	// RecIdx lists the body indices of literals in the head's SCC
	// (exactly one for a linear recursion).
	RecIdx []int
	// Paths groups the remaining body literals into chain generating
	// paths by shared-variable connectivity.
	Paths []Path
}

// Compiled is the chain form of one recursive predicate.
type Compiled struct {
	Pred  string
	Arity int
	Class program.RecursionClass
	// RecRules holds the recursive rules with their CGPs.
	RecRules []RecRule
	// ExitRules holds the non-recursive rules (the exit portion).
	ExitRules []program.Rule
	// Notes records compile-time simplifications (e.g. dropped
	// redundant recursive rules — the trivial bounded-recursion case).
	Notes []string
}

// Key returns the predicate key.
func (c *Compiled) Key() string { return fmt.Sprintf("%s/%d", c.Pred, c.Arity) }

// NChains returns the maximum number of chain generating paths across
// the recursive rules: 1 means single-chain, >1 multi-chain.
func (c *Compiled) NChains() int {
	n := 0
	for _, rr := range c.RecRules {
		if len(rr.Paths) > n {
			n = len(rr.Paths)
		}
	}
	return n
}

func (c *Compiled) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiled %s (%s, %d-chain)\n", c.Key(), c.Class, c.NChains())
	for _, rr := range c.RecRules {
		fmt.Fprintf(&b, "  rec: %s\n", rr.Rule)
		for i, p := range rr.Paths {
			fmt.Fprintf(&b, "    path %d:", i)
			for _, li := range p.Literals {
				fmt.Fprintf(&b, " %s", rr.Rule.Body[li])
			}
			b.WriteByte('\n')
		}
	}
	for _, er := range c.ExitRules {
		fmt.Fprintf(&b, "  exit: %s\n", er)
	}
	return b.String()
}

// Compile builds the chain form of predicate key in the rectified
// program p. It succeeds for every recursion class; the amount of
// structure recovered depends on the class (nonlinear rules get their
// CGPs too, with RecIdx listing all recursive literals).
func Compile(p *program.Program, g *program.DepGraph, key string) (*Compiled, error) {
	return CompileCtx(nil, p, g, key)
}

// CompileCtx is Compile with a cancellation context, checked per rule
// so even compilation of very large programs stays interruptible. A
// nil context is never checked.
func CompileCtx(ctx context.Context, p *program.Program, g *program.DepGraph, key string) (*Compiled, error) {
	if err := faultinject.Fire(faultinject.SiteChainCompile); err != nil {
		return nil, compileFailed(key, err)
	}
	rules := p.RulesFor(key)
	if len(rules) == 0 {
		return nil, fmt.Errorf("chain: no rules for %s", key)
	}
	pred, arity, err := program.SplitKey(key)
	if err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}

	c := &Compiled{
		Pred:  pred,
		Arity: arity,
		Class: program.Classify(p, g, key),
	}
	for _, r := range rules {
		if err := everr.Check(ctx); err != nil {
			return nil, err
		}
		var recIdx []int
		for i, b := range r.Body {
			if !b.IsBuiltin() && g.SameSCC(b.Key(), key) {
				recIdx = append(recIdx, i)
			}
		}
		if len(recIdx) == 0 {
			c.ExitRules = append(c.ExitRules, r)
			continue
		}
		if redundantRecursiveRule(r, recIdx) {
			// The recursive literal reproduces the head verbatim, so
			// every derivation only re-derives its own premise: the
			// rule is a no-op (the degenerate bounded-recursion case)
			// and is compiled away.
			c.Notes = append(c.Notes, fmt.Sprintf("dropped redundant recursive rule %s", r))
			continue
		}
		rr := RecRule{Rule: r, RecIdx: recIdx}
		rr.Paths = extractPaths(r, recIdx)
		c.RecRules = append(c.RecRules, rr)
	}
	if len(c.RecRules) == 0 {
		return c, nil // nonrecursive: exit rules only
	}
	return c, nil
}

// Reuse passes c, a chain form compiled earlier from the same rules,
// through the checks a fresh compilation makes: the compile fault site
// and ctx. It returns c itself, which callers share and never modify.
func Reuse(ctx context.Context, c *Compiled) (*Compiled, error) {
	if err := faultinject.Fire(faultinject.SiteChainCompile); err != nil {
		return nil, compileFailed(c.Key(), err)
	}
	if err := everr.Check(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// compileFailed is the error of a compilation of key that the fault
// site failed.
func compileFailed(key string, err error) error {
	return fmt.Errorf("chain: compilation of %s failed: %w", key, err)
}

// redundantRecursiveRule reports whether some recursive body literal
// is syntactically identical to the rule head (same predicate, same
// argument terms): the derived tuple then equals the consumed tuple,
// so the rule can never contribute a new fact.
func redundantRecursiveRule(r program.Rule, recIdx []int) bool {
	for _, i := range recIdx {
		lit := r.Body[i]
		if lit.Negated || lit.Pred != r.Head.Pred || lit.Arity() != r.Head.Arity() {
			continue
		}
		same := true
		for k := range lit.Args {
			if !term.Equal(lit.Args[k], r.Head.Args[k]) {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// extractPaths groups the non-recursive body literals of r into
// connected components under the shares-a-variable relation.
func extractPaths(r program.Rule, recIdx []int) []Path {
	isRec := make(map[int]bool, len(recIdx))
	for _, i := range recIdx {
		isRec[i] = true
	}
	var lits []int
	for i := range r.Body {
		if !isRec[i] {
			lits = append(lits, i)
		}
	}
	// Union-find over lits.
	parent := make(map[int]int, len(lits))
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, i := range lits {
		parent[i] = i
	}
	// Connect literals sharing any variable.
	varUser := make(map[string][]int)
	for _, i := range lits {
		for v := range r.Body[i].Vars() {
			varUser[v] = append(varUser[v], i)
		}
	}
	for _, users := range varUser {
		for k := 1; k < len(users); k++ {
			union(users[0], users[k])
		}
	}
	groups := make(map[int][]int)
	for _, i := range lits {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	paths := make([]Path, 0, len(groups))
	for _, root := range roots {
		members := groups[root]
		sort.Ints(members)
		paths = append(paths, Path{Literals: members})
	}
	return paths
}

// Split describes the chain-split of one recursive rule under a query
// adornment: which body literals are immediately evaluable (the
// evaluated portion, in schedule order), and which are delayed until
// the recursion returns.
type Split struct {
	// Eval lists body literal indices evaluable before the (first)
	// recursive literal, in schedule order.
	Eval []int
	// Delayed lists body literal indices evaluated after the recursive
	// call returns, in schedule order.
	Delayed []int
	// RecAd is the adornment the recursive call receives.
	RecAd string
	// Mandatory reports whether the split is forced by finiteness
	// (some delayed literal is not finitely evaluable before the
	// recursive call) — the paper's finiteness-based chain-split — as
	// opposed to a pure efficiency choice.
	Mandatory bool
}

// ComputeSplit schedules rule rr under head adornment headAd with the
// connectivity-aware chain schedule and extracts the chain-split. It
// returns an error when the rule is not finitely evaluable under headAd
// at all (no split rescues it).
func ComputeSplit(an *adorn.Analysis, rr RecRule, headAd string) (Split, error) {
	sched := an.ScheduleChain(rr.Rule, headAd)
	if !sched.OK {
		return Split{}, &NotFinitelyEvaluableError{
			Rule: rr.Rule, Adornment: headAd, Stuck: sched.Stuck, UnboundHead: sched.UnboundHead,
		}
	}
	if sched.RecAd == "" {
		return Split{}, fmt.Errorf("chain: no recursive literal schedulable in %s under %s", rr.Rule, headAd)
	}
	isRec := make(map[int]bool, len(rr.RecIdx))
	for _, i := range rr.RecIdx {
		isRec[i] = true
	}
	isDelayed := make(map[int]bool, len(sched.Delayed))
	for _, i := range sched.Delayed {
		isDelayed[i] = true
	}
	// A split is mandatory (finiteness-based) when some delayed literal
	// is not finitely evaluable before the recursion under the head
	// binding; otherwise it is connectivity/efficiency-based.
	mandatory := false
	bound := adorn.BoundVarsOfHead(rr.Rule.Head, headAd)
	for _, i := range sched.Order {
		if isRec[i] {
			break
		}
		for v := range rr.Rule.Body[i].Vars() {
			bound[v] = true
		}
	}
	for _, i := range sched.Delayed {
		lit := rr.Rule.Body[i]
		if !an.Finite(lit.Pred, lit.Arity(), adorn.AtomAdornment(lit, bound)) {
			mandatory = true
			break
		}
	}
	sp := Split{RecAd: sched.RecAd, Mandatory: mandatory, Delayed: sched.Delayed}
	for _, i := range sched.Order {
		if isRec[i] || isDelayed[i] {
			continue
		}
		sp.Eval = append(sp.Eval, i)
	}
	return sp, nil
}

// NotFinitelyEvaluableError reports that a rule cannot be evaluated
// finitely under an adornment, even with chain-split.
type NotFinitelyEvaluableError struct {
	Rule        program.Rule
	Adornment   string
	Stuck       []int
	UnboundHead []string
}

func (e *NotFinitelyEvaluableError) Error() string {
	var parts []string
	for _, i := range e.Stuck {
		parts = append(parts, e.Rule.Body[i].String())
	}
	msg := fmt.Sprintf("rule %q is not finitely evaluable under adornment %s", e.Rule, e.Adornment)
	if len(parts) > 0 {
		msg += fmt.Sprintf(" (unschedulable: %s)", strings.Join(parts, ", "))
	}
	if len(e.UnboundHead) > 0 {
		msg += fmt.Sprintf(" (unbound head variables: %s)", strings.Join(e.UnboundHead, ", "))
	}
	return msg
}

// Unwrap classifies the failure under the shared taxonomy: a rule that
// cannot be finitely evaluated is an ErrUnsafe condition.
func (e *NotFinitelyEvaluableError) Unwrap() error { return everr.ErrUnsafe }
