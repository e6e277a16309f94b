// Package magic implements the magic-sets rewriting with the paper's
// chain-split modification to the binding propagation rule
// (Algorithm 3.1, efficiency-based chain-split magic sets).
//
// Classic magic sets propagate the query binding through every body
// connection reachable from bound variables. On recursions like the
// paper's scsg this merges the chain generating path's connections into
// the magic predicate and the magic set degenerates toward a
// cross-product (Example 1.2). The modified propagation rule consults
// the join expansion ratio of each connection: above the chain-split
// threshold the binding is NOT propagated (the connection moves to the
// delayed portion, evaluated as part of the answer join); below the
// chain-following threshold it is propagated; in between a quantitative
// plan comparison decides. The rewritten program is then evaluated
// semi-naively, exactly as the paper prescribes.
package magic

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"chainsplit/internal/adorn"
	"chainsplit/internal/cost"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
)

// Policy selects the binding propagation rule.
type Policy int

const (
	// PolicyCost is Algorithm 3.1: thresholds plus quantitative
	// analysis over the cost model's statistics.
	PolicyCost Policy = iota
	// PolicyFollow is classic magic sets: always propagate (the
	// baseline the paper argues against).
	PolicyFollow
	// PolicySplit never propagates through EDB connections beyond the
	// first (ablation: maximal splitting).
	PolicySplit
)

func (p Policy) String() string {
	switch p {
	case PolicyCost:
		return "cost-based"
	case PolicyFollow:
		return "follow-all"
	case PolicySplit:
		return "split-all"
	default:
		return "unknown"
	}
}

// Config configures the rewrite.
type Config struct {
	Policy Policy
	// Model is required under every policy. Its catalog — the one the
	// rewritten program will be evaluated against — tells the rewrite
	// which reached IDB predicates also have stored tuples (those get a
	// bridge rule reading the stored relation), and under PolicyCost
	// its statistics make the propagation decisions. Nothing in the
	// rewrite scans base facts, so with a frozen catalog its cost is
	// O(rules) once the statistics are warm.
	Model      *cost.Model
	Thresholds cost.Thresholds // zero value → cost.DefaultThresholds
	// Supplementary factors shared join prefixes into supplementary
	// predicates (sup$…), so rules with several IDB body literals do
	// not re-evaluate the same prefix once per magic rule plus once in
	// the answer rule. Purely an optimization: answer sets are
	// identical either way (the A1 ablation experiment measures it).
	Supplementary bool
	// Analysis, when non-nil, is p's finiteness analysis, shared with
	// the caller's planning; nil builds one per rewrite.
	Analysis *adorn.Analysis
	// Ctx, when non-nil, is checked before the transform runs (the
	// rewrite itself is fast; evaluation of the rewritten program gets
	// the same context through seminaive.Options).
	Ctx context.Context
}

// SupName returns the relation name of the i-th supplementary
// predicate of rule ruleIdx of the adorned predicate.
func SupName(pred, ad string, ruleIdx, i int) string {
	return fmt.Sprintf("sup$%s@%s$%d_%d", pred, ad, ruleIdx, i)
}

func (c Config) thresholds() cost.Thresholds {
	if c.Thresholds == (cost.Thresholds{}) {
		return cost.DefaultThresholds
	}
	return c.Thresholds
}

// AdornedName returns the relation name of the adorned predicate.
func AdornedName(pred, ad string) string { return pred + "@" + ad }

// MagicName returns the relation name of the magic predicate.
func MagicName(pred, ad string) string { return "m$" + pred + "@" + ad }

// Decision records one propagation decision for Explain output.
type Decision struct {
	Rule      string
	Literal   string
	Expansion float64
	Choice    cost.Choice
	Why       string
}

// Rewritten is the result of the transform.
type Rewritten struct {
	// Program contains the adorned/magic rules plus the magic seed
	// fact; evaluate it with seminaive against the EDB catalog.
	Program *program.Program
	// Materialize holds the rules of the predicates consumed under
	// negation and everything they depend on; evaluate it fully before
	// Program. It is empty when nothing in the goal's cone is negated.
	Materialize program.Program
	// AnswerPred is the adorned relation holding the query answers.
	AnswerPred string
	// GoalAd is the adornment of the query goal.
	GoalAd string
	// Decisions lists the propagation decisions taken (PolicyCost).
	Decisions []Decision
	// AdornedPreds lists the generated (pred, adornment) pairs.
	AdornedPreds []string

	// What the rewrite read besides the rules, so Reuse can tell whether
	// another query's rewrite would come out the same: the goal key, the
	// policy and Supplementary it ran under, every propagation decision
	// in the order it was made, and which reached IDB predicates had
	// stored tuples.
	goalKey string
	policy  Policy
	supp    bool
	probes  []probe
	stored  []storedCheck
}

// probe is one propagation decision as the rewrite made it, with what
// it takes to make it again against another model.
type probe struct {
	// first marks the first decision of a rule's rewrite, where the
	// eval-portion expansion starts again at 1.
	first bool
	lit   program.Atom
	// bound holds lit's variables that were bound when it was decided:
	// the only ones the decision reads.
	bound      map[string]bool
	propagated int
	d          Decision
}

// storedCheck records whether a reached IDB predicate had stored tuples
// (and so a bridge rule).
type storedCheck struct {
	pred   string
	arity  int
	stored bool
}

// hasStored reports whether cat holds tuples for pred/arity.
func hasStored(cat *relation.Catalog, pred string, arity int) bool {
	rel := cat.Get(pred)
	return rel != nil && rel.Arity() == arity && rel.Len() > 0
}

// Rewrite performs the magic-sets transform of (rectified) program p
// for the given query goal. The goal's predicate must be an IDB
// predicate of p. Only the goal's dependency cone must be stratified.
// Negation in the cone is rewritten stratum-wise: predicates negated
// there (and everything they depend on) cannot be goal-directed — their
// absence test needs the complete relation — so their rules are
// returned in Materialize, to be evaluated fully first, and the rest is
// magic-rewritten with them treated as EDB.
func Rewrite(p *program.Program, goal program.Atom, cfg Config) (*Rewritten, error) {
	an := cfg.Analysis
	if an == nil {
		an = adorn.NewAnalysis(p)
	}
	closure, err := an.Graph().Stratify(goal.Key())
	if err != nil {
		return nil, fmt.Errorf("magic: %w", err)
	}
	idb := p.IDB() // magic-rewritten; every other predicate reads its relation
	var mat []program.Rule
	for k := range closure {
		delete(idb, k) // materialized: treated as EDB by the rewrite
	}
	for _, r := range p.Rules {
		if closure[r.Head.Key()] {
			mat = append(mat, r)
		}
	}
	if err := everr.Check(cfg.Ctx); err != nil {
		return nil, err
	}
	if err := faultinject.Fire(faultinject.SiteMagicRewrite); err != nil {
		return nil, fmt.Errorf("magic: rewrite failed: %w", err)
	}
	if !idb[goal.Key()] {
		return nil, fmt.Errorf("magic: %s is not an IDB predicate", goal.Key())
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("magic: %s rewrite requires a cost model", cfg.Policy)
	}
	th := cfg.thresholds()

	out := &Rewritten{Program: &program.Program{}, goalKey: goal.Key(), policy: cfg.Policy, supp: cfg.Supplementary}
	goalAd := adorn.GoalAdornment(goal)
	out.GoalAd = goalAd
	out.AnswerPred = AdornedName(goal.Pred, goalAd)

	type pa struct {
		key string // pred/arity
		ad  string
	}
	seen := make(map[pa]bool)
	queue := []pa{{key: goal.Key(), ad: goalAd}}
	seen[queue[0]] = true

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		pred, arity, err := program.SplitKey(cur.key)
		if err != nil {
			return nil, err
		}
		// An IDB predicate with stored tuples: its adorned version needs
		// a bridge rule reading the stored relation.
		stored := hasStored(cfg.Model.Cat, pred, arity)
		out.stored = append(out.stored, storedCheck{pred: pred, arity: arity, stored: stored})
		if stored {
			args := make([]term.Term, arity)
			for i := range args {
				args[i] = term.NewVar(fmt.Sprintf("_M%d", i))
			}
			bridge := program.Rule{Head: program.Atom{Pred: AdornedName(pred, cur.ad), Args: args}}
			if strings.ContainsRune(cur.ad, 'b') {
				var boundArgs []term.Term
				for i := range args {
					if cur.ad[i] == 'b' {
						boundArgs = append(boundArgs, args[i])
					}
				}
				bridge.Body = append(bridge.Body, program.Atom{Pred: MagicName(pred, cur.ad), Args: boundArgs})
			}
			bridge.Body = append(bridge.Body, program.Atom{Pred: pred, Args: args})
			out.Program.Rules = append(out.Program.Rules, bridge)
		}
		for ri, r := range p.RulesFor(cur.key) {
			rules, calls, probes, err := rewriteRule(an, idb, r, cur.ad, ri, cfg, th)
			if err != nil {
				return nil, err
			}
			for _, pr := range probes {
				out.Decisions = append(out.Decisions, pr.d)
			}
			out.probes = append(out.probes, probes...)
			out.Program.Rules = append(out.Program.Rules, rules...)
			for _, c := range calls {
				np := pa{key: c.key, ad: c.ad}
				if !seen[np] {
					seen[np] = true
					queue = append(queue, np)
				}
			}
		}
	}

	out.Program.Facts = seed(goal, goalAd)
	pas := make([]string, 0, len(seen))
	for k := range seen {
		pas = append(pas, AdornedName(strings.SplitN(k.key, "/", 2)[0], k.ad))
	}
	sort.Strings(pas)
	out.AdornedPreds = pas
	out.Materialize.Rules = mat
	return out, nil
}

// seed returns the magic fact for the goal's bound arguments (none when
// the goal binds nothing).
func seed(goal program.Atom, goalAd string) []program.Atom {
	if !strings.ContainsRune(goalAd, 'b') {
		return nil
	}
	var boundArgs []term.Term
	for i, a := range goal.Args {
		if goalAd[i] == 'b' {
			boundArgs = append(boundArgs, a)
		}
	}
	return []program.Atom{{Pred: MagicName(goal.Pred, goalAd), Args: boundArgs}}
}

// Reuse returns the rewrite of goal that Rewrite(p, goal, cfg) would
// return, built from rw, an earlier rewrite of the same rules p under
// cfg.Analysis of p: it makes rw's propagation decisions again against
// cfg's model and thresholds, and if every choice and every reached IDB
// predicate's stored-tuple bridge come out as they did for rw, it
// returns rw's rules with goal's seed fact and the fresh decisions.
// Otherwise ok is false and nothing is returned: the rewrite must run.
// Like Rewrite it checks cfg.Ctx and passes the rewrite's fault site.
// The result shares rw's rules; neither may be modified.
func (rw *Rewritten) Reuse(goal program.Atom, cfg Config) (out *Rewritten, ok bool, err error) {
	goalAd := adorn.GoalAdornment(goal)
	if cfg.Model == nil || goal.Key() != rw.goalKey || goalAd != rw.GoalAd ||
		cfg.Policy != rw.policy || cfg.Supplementary != rw.supp {
		return nil, false, nil
	}
	for _, s := range rw.stored {
		if hasStored(cfg.Model.Cat, s.pred, s.arity) != s.stored {
			return nil, false, nil
		}
	}
	th := cfg.thresholds()
	var decisions []Decision // nil without probes, as Rewrite leaves it
	if len(rw.probes) > 0 {
		decisions = make([]Decision, len(rw.probes))
	}
	evalExpansion := 1.0
	for i, pr := range rw.probes {
		if pr.first {
			evalExpansion = 1
		}
		choice, e, why := decide(cfg, th, pr.lit, pr.bound, evalExpansion, pr.propagated)
		if choice != pr.d.Choice {
			return nil, false, nil
		}
		if choice != cost.Split && e > 0 {
			evalExpansion *= e
		}
		decisions[i] = Decision{Rule: pr.d.Rule, Literal: pr.d.Literal, Expansion: e, Choice: choice, Why: why}
	}
	if err := everr.Check(cfg.Ctx); err != nil {
		return nil, false, err
	}
	if err := faultinject.Fire(faultinject.SiteMagicRewrite); err != nil {
		return nil, false, fmt.Errorf("magic: rewrite failed: %w", err)
	}
	reused := *rw
	n := len(rw.Program.Rules)
	reused.Program = &program.Program{Rules: rw.Program.Rules[:n:n], Facts: seed(goal, goalAd)}
	reused.Decisions = decisions
	return &reused, true, nil
}

// decide is the propagation rule for EDB literal lit with the variables
// in bound bound: the policy's choice, the estimated expansion (0 under
// the ablation policies) and why. evalExpansion is the product of the
// expansions followed so far in the rule, propagated the number of
// literals that propagated bindings before lit.
func decide(cfg Config, th cost.Thresholds, lit program.Atom, bound map[string]bool, evalExpansion float64, propagated int) (cost.Choice, float64, string) {
	switch cfg.Policy {
	case PolicyFollow:
		return cost.Follow, 0, "policy follow-all"
	case PolicySplit:
		if propagated == 0 {
			return cost.Follow, 0, "policy split-all: first connection follows"
		}
		return cost.Split, 0, "policy split-all"
	default:
		e := cfg.Model.Expansion(lit, bound)
		choice, why := cfg.Model.Decide(e, evalExpansion, th)
		return choice, e, why
	}
}

type callSite struct {
	key string
	ad  string
}

// Answers extracts the query answers from an evaluated catalog: the
// adorned answer relation holds answers for every magic binding, so the
// goal's ground arguments select the requested subset.
func Answers(cat *relation.Catalog, rw *Rewritten, goal program.Atom) *relation.Relation {
	rel := cat.Get(rw.AnswerPred)
	if rel == nil {
		return relation.New(rw.AnswerPred, len(goal.Args))
	}
	constraints := make(map[int]term.Term)
	for i, a := range goal.Args {
		if a.Ground() {
			constraints[i] = a
		}
	}
	return rel.Select(constraints)
}

// rewriteRule adorns one rule under head adornment ad, generating the
// magic (and, when configured, supplementary) rules for its IDB body
// literals according to the propagation policy. It returns every
// generated rule, with the adorned answer rule last, and the
// propagation decisions it made, or an error when no finite order
// places one of the rule's IDB literals.
func rewriteRule(an *adorn.Analysis, idb map[string]bool, r program.Rule, ad string, ruleIdx int, cfg Config, th cost.Thresholds) ([]program.Rule, []callSite, []probe, error) {
	bound := adorn.BoundVarsOfHead(r.Head, ad)
	hasMagic := strings.ContainsRune(ad, 'b')

	// The magic guard literal for the head.
	var magicHead *program.Atom
	if hasMagic {
		var boundArgs []term.Term
		for i, a := range r.Head.Args {
			if ad[i] == 'b' {
				boundArgs = append(boundArgs, a)
			}
		}
		magicHead = &program.Atom{Pred: MagicName(r.Head.Pred, ad), Args: boundArgs}
	}

	litAds := make(map[int]string) // IDB literal index → adornment used
	var sipOrder []int
	// roles records how each scheduled literal participates, for the
	// post-pass that assembles the rules; propagated counts the
	// literals that propagate bindings so far.
	roles := make(map[int]sipRole)
	propagated := 0
	var calls []callSite
	var probes []probe

	evalExpansion := 1.0

	// The chain order picks the literals (adorn.Order) as the bindings
	// grow; a split literal binds nothing. What it cannot place stays a
	// residual of the answer rule, which seminaive orders again when it
	// evaluates the rewritten program.
	ord := an.Order(r, true)
	for i := ord.Next(bound); i >= 0; i = ord.Next(bound) {
		lit := r.Body[i]
		sipOrder = append(sipOrder, i)
		roles[i] = rolePropagating
		switch {
		case lit.Negated:
			// Negation-as-failure binds nothing and must not join the
			// magic bodies: it is a pure test in the answer rule. Its
			// predicate is materialized beforehand (Rewritten.Materialize).
			roles[i] = roleResidual
		case lit.IsBuiltin(): // ready, so it propagates
		case idb[lit.Key()]: // IDB literal: adorn, enqueue
			litAds[i] = adorn.AtomAdornment(lit, bound)
			roles[i] = roleIDB
			calls = append(calls, callSite{key: lit.Key(), ad: litAds[i]})
		default: // EDB literal: propagation policy decides
			choice, e, why := decide(cfg, th, lit, bound, evalExpansion, propagated)
			litBound := make(map[string]bool)
			for v := range lit.Vars() {
				if bound[v] {
					litBound[v] = true
				}
			}
			probes = append(probes, probe{
				first: len(probes) == 0, lit: lit, bound: litBound, propagated: propagated,
				d: Decision{Rule: r.String(), Literal: lit.String(), Expansion: e, Choice: choice, Why: why},
			})
			if choice == cost.Split {
				// Split: the literal stays in the rule body (delayed
				// portion) but contributes no bindings and is excluded
				// from magic rule bodies.
				roles[i] = roleResidual
			} else if e > 0 {
				evalExpansion *= e
			}
		}
		if roles[i] != roleResidual {
			// A propagating literal, or an IDB literal's answers, binds
			// all its variables.
			propagated++
			for v := range lit.Vars() {
				bound[v] = true
			}
		}
	}
	for i, lit := range r.Body {
		if ord.Taken(i) {
			continue
		}
		if idb[lit.Key()] {
			// An IDB literal read unadorned would read no answers.
			return nil, nil, nil, fmt.Errorf("magic: no finite order places %s in %s under %s: %w", lit, r, ad, everr.ErrUnsafe)
		}
		sipOrder = append(sipOrder, i)
		roles[i] = roleResidual
	}

	var rules []program.Rule
	if cfg.Supplementary {
		rules = assembleSupplementary(r, ad, ruleIdx, sipOrder, roles, litAds, magicHead)
	} else {
		rules = assembleFlat(r, ad, sipOrder, roles, litAds, magicHead)
	}
	return rules, calls, probes, nil
}

// sipRole classifies a scheduled body literal.
type sipRole int

const (
	// rolePropagating: a builtin or followed EDB literal contributing
	// bindings to the SIP.
	rolePropagating sipRole = iota
	// roleIDB: an IDB literal (adorned, magic-guarded).
	roleIDB
	// roleResidual: a split EDB literal, a negation, or a builtin the
	// order could not place — present in the answer rule only.
	roleResidual
)

// adornedBodyAtom renders body literal i as it appears in rewritten
// rules.
func adornedBodyAtom(r program.Rule, i int, litAds map[int]string) program.Atom {
	lit := r.Body[i]
	if litAd, ok := litAds[i]; ok {
		return program.Atom{Pred: AdornedName(lit.Pred, litAd), Args: lit.Args}
	}
	return lit
}

// magicRuleHead builds the magic head atom for IDB body literal i.
func magicRuleHead(r program.Rule, i int, litAds map[int]string) (program.Atom, bool) {
	lit := r.Body[i]
	litAd := litAds[i]
	if !strings.ContainsRune(litAd, 'b') {
		return program.Atom{}, false
	}
	var boundArgs []term.Term
	for k, a := range lit.Args {
		if litAd[k] == 'b' {
			boundArgs = append(boundArgs, a)
		}
	}
	return program.Atom{Pred: MagicName(lit.Pred, litAd), Args: boundArgs}, true
}

// assembleFlat builds the classic rewrite: one magic rule per IDB body
// literal, each re-listing the whole propagating prefix, plus the
// adorned answer rule.
func assembleFlat(r program.Rule, ad string, sipOrder []int, roles map[int]sipRole, litAds map[int]string, magicHead *program.Atom) []program.Rule {
	var rules []program.Rule
	var prefix []program.Atom
	for _, i := range sipOrder {
		switch roles[i] {
		case roleIDB:
			if mh, ok := magicRuleHead(r, i, litAds); ok {
				mr := program.Rule{Head: mh}
				if magicHead != nil {
					mr.Body = append(mr.Body, *magicHead)
				}
				mr.Body = append(mr.Body, prefix...)
				rules = append(rules, mr)
			}
			prefix = append(prefix, adornedBodyAtom(r, i, litAds))
		case rolePropagating:
			prefix = append(prefix, r.Body[i])
		}
	}
	adorned := program.Rule{
		Head: program.Atom{Pred: AdornedName(r.Head.Pred, ad), Args: r.Head.Args},
	}
	if magicHead != nil {
		adorned.Body = append(adorned.Body, *magicHead)
	}
	for _, i := range sipOrder {
		adorned.Body = append(adorned.Body, adornedBodyAtom(r, i, litAds))
	}
	return append(rules, adorned)
}

// assembleSupplementary builds the supplementary-predicate rewrite:
// after each IDB body literal the bindings needed downstream are
// materialized in a sup$ relation, so shared prefixes are evaluated
// once instead of once per magic rule plus once in the answer rule.
func assembleSupplementary(r program.Rule, ad string, ruleIdx int, sipOrder []int, roles map[int]sipRole, litAds map[int]string, magicHead *program.Atom) []program.Rule {
	// neededAfter[k] = variables used by non-residual literals
	// sipOrder[k:], by the head, or by ANY residual literal. Residual
	// (split) literals are appended at the end of the answer rule
	// regardless of their SIP position, so their variables must
	// survive the whole supplementary chain — dropping them would
	// detach their join conditions and admit spurious answers.
	n := len(sipOrder)
	always := r.Head.Vars()
	for _, i := range sipOrder {
		if roles[i] == roleResidual {
			for v := range r.Body[i].Vars() {
				always[v] = true
			}
		}
	}
	neededAfter := make([]map[string]bool, n+1)
	neededAfter[n] = always
	for k := n - 1; k >= 0; k-- {
		cur := make(map[string]bool)
		for v := range neededAfter[k+1] {
			cur[v] = true
		}
		if roles[sipOrder[k]] != roleResidual {
			for v := range r.Body[sipOrder[k]].Vars() {
				cur[v] = true
			}
		}
		neededAfter[k] = cur
	}

	var rules []program.Rule
	var cur *program.Atom // current supplementary (or magic head)
	if magicHead != nil {
		cur = magicHead
	}
	var pending []program.Atom // literals since the last sup point
	bound := adorn.BoundVarsOfHead(r.Head, ad)
	supCount := 0

	for k, i := range sipOrder {
		switch roles[i] {
		case rolePropagating:
			pending = append(pending, r.Body[i])
			for v := range r.Body[i].Vars() {
				bound[v] = true
			}
		case roleResidual:
			// Appears only in the answer rule (handled at the end).
		case roleIDB:
			if mh, ok := magicRuleHead(r, i, litAds); ok {
				mr := program.Rule{Head: mh}
				if cur != nil {
					mr.Body = append(mr.Body, *cur)
				}
				mr.Body = append(mr.Body, pending...)
				rules = append(rules, mr)
			}
			// Materialize the post-call supplementary: bound vars
			// (after this literal) that are still needed.
			for v := range r.Body[i].Vars() {
				bound[v] = true
			}
			var supVars []term.Term
			for _, v := range term.SortedVarNames(bound) {
				if neededAfter[k+1][v] {
					supVars = append(supVars, term.NewVar(v))
				}
			}
			supAtom := program.Atom{Pred: SupName(r.Head.Pred, ad, ruleIdx, supCount), Args: supVars}
			supCount++
			sr := program.Rule{Head: supAtom}
			if cur != nil {
				sr.Body = append(sr.Body, *cur)
			}
			sr.Body = append(sr.Body, pending...)
			sr.Body = append(sr.Body, adornedBodyAtom(r, i, litAds))
			rules = append(rules, sr)
			supCopy := supAtom
			cur = &supCopy
			pending = nil
		}
	}

	adorned := program.Rule{
		Head: program.Atom{Pred: AdornedName(r.Head.Pred, ad), Args: r.Head.Args},
	}
	if cur != nil {
		adorned.Body = append(adorned.Body, *cur)
	}
	adorned.Body = append(adorned.Body, pending...)
	for _, i := range sipOrder {
		if roles[i] == roleResidual {
			adorned.Body = append(adorned.Body, r.Body[i])
		}
	}
	return append(rules, adorned)
}
