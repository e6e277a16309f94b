package program

import (
	"fmt"
	"sort"

	"chainsplit/internal/everr"
)

// DepGraph is the predicate dependency graph of a program: an edge
// p → q means some rule for p has q in its body. Builtins are excluded;
// they have no rules and cannot be recursive. Negative edges (through
// \+ literals) are tracked separately for the stratification check.
type DepGraph struct {
	// Edges maps a predicate key to its sorted successor keys.
	Edges map[string][]string
	// NegEdges maps a predicate key to the keys it depends on
	// negatively.
	NegEdges map[string][]string
	// sccOf maps each predicate key to the index of its strongly
	// connected component in SCCs.
	sccOf map[string]int
	// SCCs lists strongly connected components in reverse topological
	// order (callees before callers), each sorted.
	SCCs [][]string
}

// NewDepGraph builds the dependency graph and its SCC decomposition.
func NewDepGraph(p *Program) *DepGraph {
	g := &DepGraph{Edges: make(map[string][]string), NegEdges: make(map[string][]string)}
	seen := make(map[string]map[string]bool)
	seenNeg := make(map[string]map[string]bool)
	add := func(from, to string, neg bool) {
		if seen[from] == nil {
			seen[from] = make(map[string]bool)
			seenNeg[from] = make(map[string]bool)
		}
		if !seen[from][to] {
			seen[from][to] = true
			g.Edges[from] = append(g.Edges[from], to)
		}
		if neg && !seenNeg[from][to] {
			seenNeg[from][to] = true
			g.NegEdges[from] = append(g.NegEdges[from], to)
		}
	}
	for _, r := range p.Rules {
		hk := r.Head.Key()
		if _, ok := g.Edges[hk]; !ok {
			g.Edges[hk] = nil
		}
		for _, b := range r.Body {
			if b.IsBuiltin() {
				continue
			}
			add(hk, b.Key(), b.Negated)
		}
	}
	for _, succ := range g.Edges {
		sort.Strings(succ)
	}
	for _, succ := range g.NegEdges {
		sort.Strings(succ)
	}
	g.computeSCCs()
	return g
}

// Reachable returns the set of predicate keys transitively reachable
// from starts (including the starts themselves) along dependency edges
// — a goal's dependency cone. Negated dependencies are included: Edges
// holds every body literal, negated or not.
func (g *DepGraph) Reachable(starts ...string) map[string]bool {
	out := make(map[string]bool)
	var stack []string
	for _, k := range starts {
		if !out[k] {
			out[k] = true
			stack = append(stack, k)
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range g.Edges[k] {
			if !out[n] {
				out[n] = true
				stack = append(stack, n)
			}
		}
	}
	return out
}

// Stratify checks the dependency cone of goals (the whole program when
// goals is empty) for recursion through negation, which has no
// stratified model: no predicate in the cone may depend negatively on
// its own SCC. The error wraps everr.ErrUnsafe. It also returns the
// cone's negation closure — every predicate negated inside the cone
// plus everything it depends on, positively or negatively — which a
// stratified evaluation must materialize in full before anything
// goal-directed runs, since absence tests need complete relations. A
// program without negation computes no cone and returns (nil, nil).
func (g *DepGraph) Stratify(goals ...string) (map[string]bool, error) {
	if len(g.NegEdges) == 0 {
		return nil, nil
	}
	var cone map[string]bool
	if len(goals) > 0 {
		cone = g.Reachable(goals...)
	}
	froms := make([]string, 0, len(g.NegEdges))
	for from := range g.NegEdges {
		if cone == nil || cone[from] {
			froms = append(froms, from)
		}
	}
	sort.Strings(froms)
	var negated []string
	for _, from := range froms {
		for _, to := range g.NegEdges[from] {
			if g.SameSCC(from, to) {
				return nil, everr.Tag(fmt.Sprintf("program is not stratified: %s depends negatively on %s within a recursive component", from, to), everr.ErrUnsafe)
			}
			negated = append(negated, to)
		}
	}
	if len(negated) == 0 {
		return nil, nil
	}
	return g.Reachable(negated...), nil
}

// computeSCCs runs Tarjan's algorithm (iterative) over the graph.
func (g *DepGraph) computeSCCs() {
	g.sccOf = make(map[string]int)
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0

	nodes := make([]string, 0, len(g.Edges))
	for n := range g.Edges {
		nodes = append(nodes, n)
	}
	// Include pure-EDB nodes referenced but not defined.
	extra := make(map[string]bool)
	for _, succ := range g.Edges {
		for _, s := range succ {
			if _, ok := g.Edges[s]; !ok {
				extra[s] = true
			}
		}
	}
	for n := range extra {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	type frame struct {
		node string
		next int
	}
	var strongconnect func(root string)
	strongconnect = func(root string) {
		frames := []frame{{node: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := g.Edges[f.node]
			if f.next < len(succ) {
				w := succ[f.next]
				f.next++
				if _, visited := index[w]; !visited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Done with f.node.
			if low[f.node] == index[f.node] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.node {
						break
					}
				}
				sort.Strings(comp)
				id := len(g.SCCs)
				g.SCCs = append(g.SCCs, comp)
				for _, w := range comp {
					g.sccOf[w] = id
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[f.node] < low[parent] {
					low[parent] = low[f.node]
				}
			}
		}
	}
	for _, n := range nodes {
		if _, visited := index[n]; !visited {
			strongconnect(n)
		}
	}
}

// SCCOf returns the SCC index of the predicate key, or -1 if unknown.
func (g *DepGraph) SCCOf(key string) int {
	if id, ok := g.sccOf[key]; ok {
		return id
	}
	return -1
}

// SameSCC reports whether two predicate keys are mutually recursive
// (or identical and recursive through themselves is not implied — use
// Recursive for self-recursion).
func (g *DepGraph) SameSCC(a, b string) bool {
	ia, ib := g.SCCOf(a), g.SCCOf(b)
	return ia >= 0 && ia == ib
}

// Recursive reports whether key participates in a cycle: either its SCC
// has more than one member, or it has a self-edge.
func (g *DepGraph) Recursive(key string) bool {
	id := g.SCCOf(key)
	if id < 0 {
		return false
	}
	if len(g.SCCs[id]) > 1 {
		return true
	}
	for _, s := range g.Edges[key] {
		if s == key {
			return true
		}
	}
	return false
}

// RecursionClass classifies how a predicate recurses, following the
// taxonomy of the paper (§1, §4).
type RecursionClass int

const (
	// ClassNonrecursive: no cycle through the predicate.
	ClassNonrecursive RecursionClass = iota
	// ClassLinear: every recursive rule has exactly one body literal in
	// the predicate's SCC, and the SCC is the predicate alone.
	ClassLinear
	// ClassNestedLinear: linear, but some body predicate outside the
	// SCC is itself recursive (isort calling insert, §4.1).
	ClassNestedLinear
	// ClassNonlinear: some recursive rule has two or more body literals
	// in the SCC (qsort, §4.2).
	ClassNonlinear
	// ClassMutual: the SCC contains more than one predicate.
	ClassMutual
)

func (c RecursionClass) String() string {
	switch c {
	case ClassNonrecursive:
		return "nonrecursive"
	case ClassLinear:
		return "linear"
	case ClassNestedLinear:
		return "nested-linear"
	case ClassNonlinear:
		return "nonlinear"
	case ClassMutual:
		return "mutual"
	default:
		return "unknown"
	}
}

// Classify determines the recursion class of the predicate key in p.
func Classify(p *Program, g *DepGraph, key string) RecursionClass {
	if !g.Recursive(key) {
		return ClassNonrecursive
	}
	id := g.SCCOf(key)
	if len(g.SCCs[id]) > 1 {
		return ClassMutual
	}
	maxSame := 0
	nested := false
	for _, r := range p.RulesFor(key) {
		same := 0
		for _, b := range r.Body {
			if b.IsBuiltin() {
				continue
			}
			if g.SameSCC(b.Key(), key) {
				same++
			} else if g.Recursive(b.Key()) {
				nested = true
			}
		}
		if same > maxSame {
			maxSame = same
		}
	}
	switch {
	case maxSame >= 2:
		return ClassNonlinear
	case nested:
		return ClassNestedLinear
	default:
		return ClassLinear
	}
}
