package core

import (
	"context"
	"sync"

	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/cost"
	"chainsplit/internal/magic"
	"chainsplit/internal/program"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
)

// ruleSet is everything derived from a generation's rules and pragmas
// alone, built once and reused by every query on that generation and on
// every fact-only descendant, which share it by pointer; only a change
// of rules or pragmas builds a new one. It holds the finiteness
// analysis (with the dependency graph), per goal predicate its
// classification and chain form, the pragma values, the magic rewrites
// with their compiled semi-naive programs, and the compiled program
// plain semi-naive evaluation runs.
//
// Nothing it caches holds a relation, a catalog or a generation, so a
// generation it outlives stays collectable. What a query reads from the
// catalog — Algorithm 3.1's statistics, which IDB predicates have
// stored tuples, the relations an evaluation binds — is read per query.
// A failed compile or rewrite is never cached.
type ruleSet struct {
	prog    *program.Program
	pragmas pragmas

	once sync.Once
	an   *adorn.Analysis
	idb  map[string]bool
	// negated is the whole program's negation closure: a goal in it is
	// consumed under negation somewhere (see plan).
	negated map[string]bool

	mu       sync.Mutex
	goals    map[string]*goalInfo
	rewrites map[rewriteKey]*rewriteEntry
	plain    *seminaive.Compiled
}

// goalInfo is what planning reads about one goal predicate.
type goalInfo struct {
	class        program.RecursionClass
	functional   bool
	linearMutual bool
	// comp is the goal's chain form, nil until a compile succeeds.
	// Guarded by the rule set's mu.
	comp *chain.Compiled
}

// maxRewrites bounds the magic rewrites one rule set caches; past it
// the cache is cleared. A rewrite is cached per goal predicate,
// adornment, policy and Supplementary, so an ordinary workload holds a
// handful.
const maxRewrites = 64

// rewriteKey identifies a cached magic rewrite.
type rewriteKey struct {
	goal, ad string
	policy   magic.Policy
	supp     bool
}

// rewriteEntry is one cached magic rewrite and its compiled semi-naive
// programs (mat is nil when nothing is materialized first).
type rewriteEntry struct {
	rw        *magic.Rewritten
	prog, mat *seminaive.Compiled
}

// newRuleSet returns the rule set of prog's rules and pragmas; the
// analysis and everything else derived from the rules is built on
// first use.
func newRuleSet(prog *program.Program) *ruleSet {
	return &ruleSet{
		prog:     prog,
		pragmas:  readPragmas(prog.Pragmas),
		goals:    make(map[string]*goalInfo),
		rewrites: make(map[rewriteKey]*rewriteEntry),
	}
}

// init builds the analysis, the IDB set and the negation closure once.
func (rs *ruleSet) init() {
	rs.once.Do(func() {
		rs.an = adorn.NewAnalysis(rs.prog)
		rs.idb = rs.prog.IDB()
		rs.negated, _ = rs.an.Graph().Stratify()
	})
}

// analysis returns the rules' finiteness analysis; its dependency graph
// is the rules' graph.
func (rs *ruleSet) analysis() *adorn.Analysis {
	rs.init()
	return rs.an
}

// isIDB reports whether some rule defines key.
func (rs *ruleSet) isIDB(key string) bool {
	rs.init()
	return rs.idb[key]
}

// goal returns what planning reads about goal predicate key.
func (rs *ruleSet) goal(key string) *goalInfo {
	rs.init()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	gi := rs.goals[key]
	if gi == nil {
		dg := rs.an.Graph()
		gi = &goalInfo{
			class:        program.Classify(rs.prog, dg, key),
			functional:   rs.reachesFunctional(key, dg),
			linearMutual: rs.linearMutualSCC(key, dg),
		}
		rs.goals[key] = gi
	}
	return gi
}

// chainForm returns the chain form of goal predicate key, compiling it
// on first use. A cached form still passes the compile fault site and
// the context check, as a compile would.
func (rs *ruleSet) chainForm(ctx context.Context, key string) (*chain.Compiled, error) {
	gi := rs.goal(key)
	rs.mu.Lock()
	comp := gi.comp
	rs.mu.Unlock()
	if comp != nil {
		return chain.Reuse(ctx, comp)
	}
	comp, err := chain.CompileCtx(ctx, rs.prog, rs.an.Graph(), key)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	gi.comp = comp
	rs.mu.Unlock()
	return comp, nil
}

// rewrite returns the magic rewrite of goal under cfg and the entry
// holding its compiled programs: a cached rewrite of the same goal
// predicate, adornment, policy and Supplementary when Reuse accepts it
// for this query's model and thresholds, else a fresh one, which
// replaces it in the cache.
func (rs *ruleSet) rewrite(goal program.Atom, cfg magic.Config) (*magic.Rewritten, *rewriteEntry, error) {
	key := rewriteKey{goal: goal.Key(), ad: adorn.GoalAdornment(goal), policy: cfg.Policy, supp: cfg.Supplementary}
	rs.mu.Lock()
	ent := rs.rewrites[key]
	rs.mu.Unlock()
	if ent != nil {
		rw, ok, err := ent.rw.Reuse(goal, cfg)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			return rw, ent, nil
		}
	}
	rw, err := magic.Rewrite(rs.prog, goal, cfg)
	if err != nil {
		return nil, nil, err
	}
	ent = &rewriteEntry{rw: rw, prog: seminaive.Compile(rw.Program)}
	if len(rw.Materialize.Rules) > 0 {
		ent.mat = seminaive.Compile(&rw.Materialize)
	}
	rs.mu.Lock()
	if len(rs.rewrites) >= maxRewrites {
		clear(rs.rewrites)
	}
	rs.rewrites[key] = ent
	rs.mu.Unlock()
	return rw, ent, nil
}

// seminaive returns the rules compiled for plain semi-naive evaluation;
// each run evaluates its goal's cone, whose SCCs compile on first use.
func (rs *ruleSet) seminaive() *seminaive.Compiled {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.plain == nil {
		rs.plain = seminaive.Compile(rs.prog)
	}
	return rs.plain
}

// linearMutualSCC reports whether every rule of every predicate in the
// goal's SCC has at most one same-SCC body literal — the shape the
// buffered evaluator's SCC-wide context graph handles.
func (rs *ruleSet) linearMutualSCC(key string, dg *program.DepGraph) bool {
	id := dg.SCCOf(key)
	if id < 0 {
		return false
	}
	inSCC := make(map[string]bool)
	for _, m := range dg.SCCs[id] {
		inSCC[m] = true
	}
	for _, r := range rs.prog.Rules {
		if !inSCC[r.Head.Key()] {
			continue
		}
		same := 0
		for _, b := range r.Body {
			if !b.IsBuiltin() && !b.Negated && inSCC[b.Key()] {
				same++
			}
		}
		if same > 1 {
			return false
		}
	}
	return true
}

// reachesFunctional reports whether any rule reachable from the goal's
// predicate uses a functional builtin (cons, plus, times) — the
// paper's functional-recursion criterion.
func (rs *ruleSet) reachesFunctional(key string, dg *program.DepGraph) bool {
	reach := dg.Reachable(key)
	for _, r := range rs.prog.Rules {
		if !reach[r.Head.Key()] {
			continue
		}
		for _, b := range r.Body {
			switch b.Pred {
			case "cons", "plus", "times":
				return true
			}
		}
	}
	return false
}

// pragmaStrategies names the strategies a @strategy pragma selects.
var pragmaStrategies = map[string]Strategy{
	"auto": StrategyAuto, "magic": StrategyMagic, "magic_follow": StrategyMagicFollow,
	"magic_split": StrategyMagicSplit, "buffered": StrategyBuffered,
	"topdown": StrategyTopDown, "seminaive": StrategySeminaive,
}

// pragmas are the values a program's pragmas set:
//
//	@threshold split 4.    chain-split threshold (Algorithm 3.1)
//	@threshold follow 2.   chain-following threshold
//	@depth 8.              cost-model recursion-depth estimate
//	@strategy buffered.    default strategy (auto|magic|magic_follow|
//	                       magic_split|buffered|topdown|seminaive)
//
// The first nonzero @depth and the first known strategy other than auto
// count; of the thresholds, the last of each kind. Malformed pragmas
// and unknown names are ignored.
type pragmas struct {
	strategy      Strategy
	depth         int
	split, follow float64
}

// readPragmas reads the pragma values of ps.
func readPragmas(ps []program.Pragma) pragmas {
	var pv pragmas
	for _, pr := range ps {
		switch pr.Name {
		case "threshold":
			if len(pr.Args) != 2 {
				continue
			}
			kind, kok := pr.Args[0].(term.Sym)
			val, vok := pr.Args[1].(term.Int)
			if !kok || !vok {
				continue
			}
			switch kind.Name {
			case "split":
				pv.split = float64(val.V)
			case "follow":
				pv.follow = float64(val.V)
			}
		case "depth":
			if len(pr.Args) == 1 && pv.depth == 0 {
				if v, ok := pr.Args[0].(term.Int); ok {
					pv.depth = int(v.V)
				}
			}
		case "strategy":
			if len(pr.Args) == 1 && pv.strategy == StrategyAuto {
				if s, ok := pr.Args[0].(term.Sym); ok {
					pv.strategy = pragmaStrategies[s.Name]
				}
			}
		}
	}
	return pv
}

// apply folds the pragma values into the options where the caller has
// not set them. Pragma thresholds apply only when the caller set none;
// a missing half takes the library default.
func (pv pragmas) apply(opts Options) Options {
	if opts.CostDepth == 0 {
		opts.CostDepth = pv.depth
	}
	if opts.Strategy == StrategyAuto {
		opts.Strategy = pv.strategy
	}
	if opts.Thresholds == (cost.Thresholds{}) && (pv.split > 0 || pv.follow > 0) {
		opts.Thresholds = cost.DefaultThresholds
		if pv.split > 0 {
			opts.Thresholds.SplitAbove = pv.split
		}
		if pv.follow > 0 {
			opts.Thresholds.FollowBelow = pv.follow
		}
	}
	return opts
}
