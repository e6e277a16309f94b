// Package cost implements the quantitative machinery of Algorithm 3.1:
// the *join expansion ratio* of propagating a binding through a chain
// element, the chain-split / chain-following thresholds, and the
// quantitative comparison used between them.
//
// The paper's decision rule (§3.1): when deriving magic sets, if the
// join expansion ratio for a connection ⟨X, Y⟩ is above the chain-split
// threshold the binding is NOT propagated from X to Y (the connection
// is split); if it is below the chain-following threshold the binding
// is propagated; otherwise a quantitative analysis of the two candidate
// plans decides.
package cost

import (
	"fmt"
	"math"
	"sort"

	"chainsplit/internal/adorn"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Thresholds holds the two decision thresholds of Algorithm 3.1.
type Thresholds struct {
	// SplitAbove: expansion ratios above this always split.
	SplitAbove float64
	// FollowBelow: expansion ratios below this always follow.
	FollowBelow float64
}

// DefaultThresholds are conservative: following is clearly right when a
// connection contracts or preserves the binding set (ratio ≤ 1.2), and
// clearly wrong when each binding fans out into 4+ new bindings per
// iteration.
var DefaultThresholds = Thresholds{SplitAbove: 4.0, FollowBelow: 1.2}

// Choice is the outcome of a propagation decision.
type Choice int

const (
	// Follow: propagate the binding through the connection.
	Follow Choice = iota
	// Split: do not propagate; the connection joins the delayed
	// portion.
	Split
)

func (c Choice) String() string {
	if c == Split {
		return "split"
	}
	return "follow"
}

// Model estimates expansion ratios from catalog statistics.
//
// Against a frozen (published) catalog its cost does not depend on the
// number of base facts once the statistics are warm: cardinalities are
// Len, and the distinct count of a literal's bound columns is scanned
// once per relation and column list, then memoized by the relation
// (Relation.DistinctOn). Against an unfrozen catalog every Expansion
// with bound columns rescans.
type Model struct {
	// Cat provides relation cardinalities and distinct counts. The
	// magic rewrite also reads it to learn which IDB predicates have
	// stored tuples.
	Cat *relation.Catalog
	// Depth is the estimated recursion depth used by the quantitative
	// plan comparison (0 = 6).
	Depth int
}

// defaultExpansion is assumed for predicates without statistics
// (unmaterialized IDB).
const defaultExpansion = 1.5

func (m *Model) depth() int {
	if m.Depth > 0 {
		return m.Depth
	}
	return 6
}

// Expansion estimates the join expansion ratio of evaluating literal
// lit with the variables in bound already bound: the average number of
// distinct values for the free argument positions per binding of the
// bound positions,
//
//	|π_{bound ∪ free}(r)| / |π_bound(r)|.
//
// With no bound position the ratio is the full relation cardinality
// (the cross-product effect the paper warns about). Unknown relations
// get defaultExpansion.
func (m *Model) Expansion(lit program.Atom, bound map[string]bool) float64 {
	rel := m.Cat.Get(lit.Pred)
	if rel == nil || rel.Arity() != lit.Arity() {
		return defaultExpansion
	}
	if rel.Len() == 0 {
		// Explicit zero-expansion signal: the connection is provably
		// empty, so any plan joining through it is vacuous. Callers
		// (Decide, SplitPath) treat 0 as its own case — it must not be
		// conflated with "selection, no expansion" (1).
		return 0
	}
	var boundCols []int
	for i, arg := range lit.Args {
		isBound := true
		if !arg.Ground() {
			for v := range term.VarSet(arg) {
				if !bound[v] {
					isBound = false
					break
				}
			}
		}
		if isBound {
			boundCols = append(boundCols, i)
		}
	}
	// |π_{bound ∪ free}(r)| is |r|: a relation is a set.
	total := float64(rel.Len())
	if len(boundCols) == 0 {
		return total
	}
	if len(boundCols) == rel.Arity() {
		return 1 // pure selection, no expansion
	}
	return total / float64(rel.DistinctOn(boundCols))
}

// PlanCost is the estimated cumulative magic-set size of a plan whose
// per-iteration binding expansion is factor, over the model's depth,
// starting from one binding.
func (m *Model) PlanCost(factor float64) float64 {
	cost := 0.0
	size := 1.0
	for i := 0; i < m.depth(); i++ {
		size *= math.Max(factor, 1e-9)
		// Binding sets are sets: they cannot exceed the active domain.
		size = math.Min(size, m.domainCap())
		cost += size
	}
	return cost
}

// domainCap bounds binding-set growth by the total number of constants
// in the catalog (a crude active-domain estimate).
func (m *Model) domainCap() float64 {
	n := m.Cat.TotalTuples() * 2
	if n < 16 {
		n = 16
	}
	return float64(n)
}

// Decide applies Algorithm 3.1's rule to one connection: expansion e,
// with evalExpansion the product of expansions of the connections
// already followed in this chain generating path.
func (m *Model) Decide(e, evalExpansion float64, th Thresholds) (Choice, string) {
	switch {
	case e == 0:
		// Empty connection: the join is vacuous. Follow — propagating
		// produces an empty magic set and the evaluation terminates
		// immediately, whereas splitting would delay the (provably
		// empty) join until after the whole eval portion ran.
		return Follow, "empty connection (expansion 0): plan is vacuous, follow to terminate early"
	case e > th.SplitAbove:
		return Split, fmt.Sprintf("expansion %.2f > split threshold %.2f", e, th.SplitAbove)
	case e < th.FollowBelow:
		return Follow, fmt.Sprintf("expansion %.2f < follow threshold %.2f", e, th.FollowBelow)
	default:
		// Quantitative analysis: compare cumulative magic-set sizes.
		followCost := m.PlanCost(evalExpansion * e)
		// The split plan keeps the magic set at the eval-portion
		// expansion but pays the delayed join once per answer.
		splitCost := m.PlanCost(evalExpansion) + m.PlanCost(evalExpansion)*e
		if followCost <= splitCost {
			return Follow, fmt.Sprintf("quantitative: follow cost %.0f <= split cost %.0f", followCost, splitCost)
		}
		return Split, fmt.Sprintf("quantitative: split cost %.0f < follow cost %.0f", splitCost, followCost)
	}
}

// SplitDecision is the outcome of walking one chain generating path.
type SplitDecision struct {
	// Propagate lists body literal indices through which the binding
	// is propagated, in SIP order.
	Propagate []int
	// Delayed lists body literal indices whose evaluation is delayed.
	Delayed []int
	// Expansions records the estimated expansion ratio per literal.
	Expansions map[int]float64
	// Rationale explains each decision, in order.
	Rationale []string
	// Vacuous reports that some propagated connection is provably
	// empty (expansion 0): the path contributes no tuples, whatever
	// the split does.
	Vacuous bool
}

// SplitPath walks the chain generating path (body literal indices of
// rule) starting from the variables bound by the head adornment and
// decides, literal by literal, whether to keep propagating the binding
// (chain-following) or to cut (chain-split). Only literals reachable
// through already-bound variables are candidates for propagation; once
// a cut happens, everything remaining in the path is delayed.
//
// No engine executes this walk (the magic rewrite decides per literal
// through Decide); it is kept only while the benchmark's
// cost.split_path_us metric times it.
func (m *Model) SplitPath(rule program.Rule, path []int, bound map[string]bool, th Thresholds) SplitDecision {
	dec := SplitDecision{Expansions: make(map[int]float64)}
	bound = cloneSet(bound)
	remaining := append([]int(nil), path...)
	evalExpansion := 1.0
	for len(remaining) > 0 {
		// Candidates: literals sharing at least one bound variable (or
		// fully ground).
		cand := -1
		candExp := math.Inf(1)
		for _, li := range remaining {
			lit := rule.Body[li]
			if !adorn.ConnectedTo(lit, bound) {
				continue
			}
			e := m.Expansion(lit, bound)
			if e < candExp {
				cand, candExp = li, e
			}
		}
		if cand < 0 {
			// Nothing connected: the rest of the path cannot receive
			// the binding; it is delayed by construction.
			sort.Ints(remaining)
			for _, li := range remaining {
				dec.Delayed = append(dec.Delayed, li)
				dec.Rationale = append(dec.Rationale, fmt.Sprintf("literal %d unconnected to binding", li))
			}
			return dec
		}
		choice, why := m.Decide(candExp, evalExpansion, th)
		dec.Expansions[cand] = candExp
		dec.Rationale = append(dec.Rationale, fmt.Sprintf("literal %d (%s): %s → %s", cand, rule.Body[cand], why, choice))
		if choice == Split {
			sort.Ints(remaining)
			dec.Delayed = append(dec.Delayed, remaining...)
			return dec
		}
		dec.Propagate = append(dec.Propagate, cand)
		if candExp == 0 {
			dec.Vacuous = true
		}
		evalExpansion *= math.Max(candExp, 1e-9)
		for v := range rule.Body[cand].Vars() {
			bound[v] = true
		}
		remaining = removeInt(remaining, cand)
	}
	return dec
}

func cloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func removeInt(s []int, x int) []int {
	out := s[:0]
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}
