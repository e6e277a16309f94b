// Package workload generates the synthetic EDBs the experiment suite
// runs on: family trees with countries (sg/scsg, Examples 1.1–1.2),
// flight networks with fares and times (travel, §3), random integer
// lists (append/isort/qsort, §1.2 and §4) and the link/bridge
// expansion-ratio sweep (Algorithm 3.1's threshold experiments).
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math/rand"

	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// FamilyConfig parameterizes a family forest.
type FamilyConfig struct {
	// Generations is the number of ancestor levels above the youngest.
	Generations int
	// Fanout is the number of children per person.
	Fanout int
	// Roots is the number of oldest-generation ancestors.
	Roots int
	// Countries is the number of distinct countries people are born
	// in; same_country holds within a generation for equal countries.
	// 1 means everyone matches everyone (the paper's worst case for
	// chain-following).
	Countries int
	// Seed drives country assignment.
	Seed int64
}

// Family generates parent/2, sibling/2 and same_country/2 facts.
// People are named g<gen>_<idx>; generation 0 is the oldest. sibling
// holds between distinct children of the same parent; the oldest
// generation are siblings of themselves (so sg has seeds).
func Family(cfg FamilyConfig) *program.Program {
	if cfg.Roots <= 0 {
		cfg.Roots = 1
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.Countries <= 0 {
		cfg.Countries = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &program.Program{}
	name := func(gen, idx int) term.Term { return term.NewSym(fmt.Sprintf("g%d_%d", gen, idx)) }

	// Oldest generation: self-siblings (sg seeds).
	for i := 0; i < cfg.Roots; i++ {
		p.Facts = append(p.Facts, program.NewAtom("sibling", name(0, i), name(0, i)))
	}
	prevCount := cfg.Roots
	counts := []int{cfg.Roots}
	for gen := 1; gen <= cfg.Generations; gen++ {
		count := prevCount * cfg.Fanout
		for i := 0; i < count; i++ {
			parent := i / cfg.Fanout
			p.Facts = append(p.Facts, program.NewAtom("parent", name(gen, i), name(gen-1, parent)))
		}
		// Siblings: distinct children of the same parent.
		for parent := 0; parent < prevCount; parent++ {
			for a := 0; a < cfg.Fanout; a++ {
				for b := 0; b < cfg.Fanout; b++ {
					if a == b {
						continue
					}
					p.Facts = append(p.Facts, program.NewAtom("sibling",
						name(gen, parent*cfg.Fanout+a), name(gen, parent*cfg.Fanout+b)))
				}
			}
		}
		prevCount = count
		counts = append(counts, count)
	}
	// Countries: assigned per person; same_country pairs each person
	// with their generation's compatriots in index order
	// (cross-generation pairs never join in scsg anyway).
	for gen := 0; gen <= cfg.Generations; gen++ {
		n := counts[gen]
		country := make([]int, n)
		people := make([]term.Term, n)
		byCountry := make(map[int][]term.Term)
		for i := range country {
			country[i] = rng.Intn(cfg.Countries)
			people[i] = name(gen, i)
			byCountry[country[i]] = append(byCountry[country[i]], people[i])
		}
		for i, c := range country {
			for _, other := range byCountry[c] {
				p.Facts = append(p.Facts, program.NewAtom("same_country", people[i], other))
			}
		}
	}
	return p
}

// PersonName returns the name of person idx in generation gen, for
// building queries against a Family workload.
func PersonName(gen, idx int) string { return fmt.Sprintf("g%d_%d", gen, idx) }

// SGRules returns the sg program (paper Example 1.1).
func SGRules() string {
	return `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
`
}

// SCSGRules returns the scsg program (paper Example 1.2).
func SCSGRules() string {
	return `
scsg(X, Y) :- parent(X, X1), parent(Y, Y1), same_country(X1, Y1), scsg(X1, Y1).
scsg(X, Y) :- sibling(X, Y).
`
}

// FlightsConfig parameterizes a flight network.
type FlightsConfig struct {
	// Cities is the number of airports.
	Cities int
	// OutDegree is the number of departures per city.
	OutDegree int
	// Layered, when set, only allows flights from layer i to i+1
	// (acyclic — evaluation terminates without constraints); otherwise
	// destinations are random (cyclic) with permissive times.
	Layered bool
	// Layers is the number of layers when Layered.
	Layers int
	// MaxFare bounds individual fares (min 10).
	MaxFare int
	Seed    int64
}

// Flights generates flight/6 facts:
// flight(Fno, Departure, DepTime, Arrival, ArrTime, Fare). In layered
// mode departure times exceed the previous layer's arrival times so
// every connection is feasible; in cyclic mode all departures are at
// time 100 and arrivals at time 50, so every connection is feasible
// and routes can grow forever.
func Flights(cfg FlightsConfig) *program.Program {
	if cfg.Cities <= 0 {
		cfg.Cities = 8
	}
	if cfg.OutDegree <= 0 {
		cfg.OutDegree = 2
	}
	if cfg.MaxFare < 10 {
		cfg.MaxFare = 300
	}
	if cfg.Layers <= 0 {
		cfg.Layers = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &program.Program{}
	fno := 0
	add := func(dep, arr term.Term, dt, at, fare int) {
		fno++
		p.Facts = append(p.Facts, program.NewAtom("flight",
			term.NewInt(int64(fno)), dep, term.NewInt(int64(dt)),
			arr, term.NewInt(int64(at)), term.NewInt(int64(fare))))
	}
	fare := func() int { return 10 + rng.Intn(cfg.MaxFare-9) }
	if cfg.Layered {
		city := func(layer, idx int) term.Term {
			return term.NewSym(fmt.Sprintf("c%d_%d", layer, idx))
		}
		for layer := 0; layer < cfg.Layers; layer++ {
			for i := 0; i < cfg.Cities; i++ {
				for d := 0; d < cfg.OutDegree; d++ {
					dst := rng.Intn(cfg.Cities)
					// Departure at layer*100+60 > previous arrival
					// layer*100+40: all connections feasible.
					add(city(layer, i), city(layer+1, dst), layer*100+60, layer*100+140, fare())
				}
			}
		}
	} else {
		city := func(idx int) term.Term { return term.NewSym(fmt.Sprintf("c%d", idx)) }
		for i := 0; i < cfg.Cities; i++ {
			for d := 0; d < cfg.OutDegree; d++ {
				dst := rng.Intn(cfg.Cities)
				add(city(i), city(dst), 100, 50, fare())
			}
		}
	}
	return p
}

// CityName returns city names matching the Flights generator: layered
// mode uses CityName(layer, idx), cyclic mode uses CityName(-1, idx).
func CityName(layer, idx int) string {
	if layer < 0 {
		return fmt.Sprintf("c%d", idx)
	}
	return fmt.Sprintf("c%d_%d", layer, idx)
}

// TravelRules returns the travel program (paper §3, compiled form 3.6).
func TravelRules() string {
	return `
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
`
}

// RandomInts returns n pseudo-random integers in [0, max).
func RandomInts(n int, max int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max)
	}
	return out
}

// SortRules returns the isort and qsort programs (paper §4).
func SortRules() string {
	return `
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls), qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`
}

// AppendRules returns just the append program (paper §1.2).
func AppendRules() string {
	return `
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
`
}

// AlternatingConfig parameterizes the mutual-recursion workload: a
// layered graph whose even layers carry a-edges and odd layers
// b-edges, so reachability must alternate predicates.
type AlternatingConfig struct {
	// Layers is the number of edge layers.
	Layers int
	// Width is the number of nodes per layer.
	Width int
	// OutDegree is the number of edges per node.
	OutDegree int
	Seed      int64
}

// Alternating generates aEdge/2 and bEdge/2 facts over a layered graph.
func Alternating(cfg AlternatingConfig) *program.Program {
	if cfg.Layers <= 0 {
		cfg.Layers = 4
	}
	if cfg.Width <= 0 {
		cfg.Width = 3
	}
	if cfg.OutDegree <= 0 {
		cfg.OutDegree = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &program.Program{}
	node := func(layer, idx int) term.Term { return term.NewSym(fmt.Sprintf("m%d_%d", layer, idx)) }
	for l := 0; l < cfg.Layers; l++ {
		pred := "aEdge"
		if l%2 == 1 {
			pred = "bEdge"
		}
		for i := 0; i < cfg.Width; i++ {
			for d := 0; d < cfg.OutDegree; d++ {
				p.Facts = append(p.Facts, program.NewAtom(pred, node(l, i), node(l+1, rng.Intn(cfg.Width))))
			}
		}
	}
	return p
}

// AlternatingRules returns the mutually recursive alternating-color
// reachability program.
func AlternatingRules() string {
	return `
reachA(X, Y) :- aEdge(X, Y).
reachA(X, Y) :- aEdge(X, Z), reachB(Z, Y).
reachB(X, Y) :- bEdge(X, Y).
reachB(X, Y) :- bEdge(X, Z), reachA(Z, Y).
`
}

// NodeName returns node names matching the Alternating generator.
func NodeName(layer, idx int) string { return fmt.Sprintf("m%d_%d", layer, idx) }

// BridgeConfig parameterizes the expansion-ratio sweep workload.
type BridgeConfig struct {
	// Depth is the chain length (recursion depth to the base).
	Depth int
	// Expansion is the bridge fanout r: each up-node connects to r
	// flat-nodes — the join expansion ratio of the bridge connection.
	Expansion int
}

// Bridge generates the T3 workload: an scsg-shaped recursion whose
// chain generating path contains a connection (bridge) with a tunable
// join expansion ratio.
//
//	r2(X, Y) :- up(X, X1), down(Y, Y1), bridge(X1, Y1), r2(X1, Y1).
//	r2(X, Y) :- base(X, Y).
//
// The X side is a chain a0 → a1 → … → aD (up); the Y side has
// Expansion parallel chains b_i_j (down); bridge connects a_i to every
// b_i_j, so its expansion ratio with X1 bound is exactly Expansion.
// Following the binding through bridge makes the magic set hold
// (a_i, b_i_j) pairs — Expansion per level; splitting keeps it at one
// a_i per level.
func Bridge(cfg BridgeConfig) *program.Program {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Expansion <= 0 {
		cfg.Expansion = 1
	}
	p := &program.Program{}
	a := func(i int) term.Term { return term.NewSym(fmt.Sprintf("a%d", i)) }
	b := func(i, j int) term.Term { return term.NewSym(fmt.Sprintf("b%d_%d", i, j)) }
	for i := 0; i < cfg.Depth; i++ {
		p.Facts = append(p.Facts, program.NewAtom("up", a(i), a(i+1)))
		for j := 0; j < cfg.Expansion; j++ {
			p.Facts = append(p.Facts, program.NewAtom("down", b(i, j), b(i+1, j)))
			p.Facts = append(p.Facts, program.NewAtom("bridge", a(i+1), b(i+1, j)))
		}
	}
	for j := 0; j < cfg.Expansion; j++ {
		p.Facts = append(p.Facts, program.NewAtom("base", a(cfg.Depth), b(cfg.Depth, j)))
	}
	return p
}

// BridgeRules returns the r2 program for the Bridge workload.
func BridgeRules() string {
	return `
r2(X, Y) :- up(X, X1), down(Y, Y1), bridge(X1, Y1), r2(X1, Y1).
r2(X, Y) :- base(X, Y).
`
}
