package main

// The traced run. Instead of calling DB.Query / DB.LoadFacts, the
// harness replays each operation stage by stage through the exported
// functions of the internal packages — the same calls, in the same
// order, that internal/core makes — with one span around each call.
// What core does between those calls (its own glue: strategy choice,
// result bindings, error wrapping) has no span and shows up as
// core.query_unattributed_share, never hidden. Layers whose cost does
// not depend on the operation are timed by fixed-count probes.

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"time"

	"chainsplit"
	"chainsplit/internal/admission"
	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/core"
	"chainsplit/internal/cost"
	"chainsplit/internal/counting"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/obsv"
	"chainsplit/internal/partial"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
	"chainsplit/internal/topdown"
	"chainsplit/internal/wal"
	"chainsplit/internal/workload"
)

// timeMedian is the median duration of n calls of f.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t)
	}
	return medianDur(ds)
}

// perCall times a loop of n calls five times and returns the median
// cost of one call: for calls too short to time singly.
func perCall(n int, f func(i int)) time.Duration {
	return timeMedian(5, func() {
		for i := 0; i < n; i++ {
			f(i)
		}
	}) / time.Duration(n)
}

func (t *tracer) selfMedian(kind, name string) time.Duration {
	return medianDur(t.selfTimes(kind)[name])
}

// coreView is an internal/core database holding the same program as a
// workload's chainsplit.DB, whose program, catalog and analysis the
// replay hands to the layers.
type coreView struct {
	db *core.DB
	an *adorn.Analysis
}

func newCoreView(facts *program.Program, rules string) (*coreView, error) {
	parsed, err := lang.Parse(rules)
	if err != nil {
		return nil, err
	}
	p := parsed.Program
	if facts != nil {
		p.Facts = append(append([]program.Atom(nil), facts.Facts...), p.Facts...)
	}
	db := core.NewDB()
	if err := db.Load(p); err != nil {
		return nil, err
	}
	return &coreView{db: db, an: adorn.NewAnalysis(db.Program())}, nil
}

// corePath times the same query through core.DB's own entry point:
// what the replayed stages are compared against.
func (cv *coreView) corePath(text string) (time.Duration, error) {
	t := time.Now()
	q, err := lang.ParseQuery(text)
	if err == nil {
		_, err = cv.db.Query(q.Goals, core.Options{})
	}
	return time.Since(t), err
}

// plan replays the part of core's planning every query pays: the
// finiteness check against the generation's cached analysis and the
// chain compilation. withSplit adds the split description core computes
// for buffered and top-down plans.
func (cv *coreView) plan(tr *tracer, goal program.Atom, withSplit bool) (comp *chain.Compiled, err error) {
	prog, ad := cv.db.Program(), adorn.GoalAdornment(goal)
	tr.do("adorn.finite", func() { cv.an.Finite(goal.Pred, goal.Arity(), ad) })
	tr.do("chain.compile", func() { comp, err = chain.Compile(prog, cv.an.Graph(), goal.Key()) })
	if err == nil && withSplit {
		tr.do("chain.split", func() {
			for _, rr := range comp.RecRules {
				chain.ComputeSplit(cv.an, rr, ad)
			}
		})
	}
	return comp, err
}

// replayMagic replays one function-free query the way core.runMagic
// evaluates it: parse, plan, magic rewrite under the cost model,
// catalog snapshot, semi-naive fixpoint, answer extraction and filter.
func (cv *coreView) replayMagic(tr *tracer, kind, text string) (answers [][]term.Term, stats *seminaive.Stats, rw *magic.Rewritten, err error) {
	prog, cat := cv.db.Program(), cv.db.Catalog()
	tr.opSpan(kind, func() {
		var q lang.Query
		tr.do("lang.parse", func() { q, err = lang.ParseQuery(text) })
		if err != nil {
			return
		}
		goal := q.Goals[0]
		if _, err = cv.plan(tr, goal, false); err != nil {
			return
		}
		tr.do("magic.rewrite", func() {
			rw, err = magic.Rewrite(prog, goal, magic.Config{Policy: magic.PolicyCost, Model: &cost.Model{Cat: cat}, Supplementary: true})
		})
		if err != nil {
			return
		}
		var work *relation.Catalog
		tr.do("relation.snapshot", func() { work = cat.Snapshot() })
		tr.do("seminaive.eval", func() { stats, err = seminaive.Eval(rw.Program, work, seminaive.Options{}) })
		if err != nil {
			return
		}
		var raw [][]term.Term
		tr.do("magic.answers", func() {
			magic.Answers(work, rw, goal).Each(func(tup relation.Tuple) bool {
				raw = append(raw, []term.Term(tup))
				return true
			})
		})
		tr.do("partial.filter", func() { answers, err = partial.FilterAnswers(goal, nil, raw) })
	})
	return answers, stats, rw, err
}

// replayBuffered replays one compiled-chain query (append, isort) the
// way core.runBuffered does: parse, plan with split, buffered
// chain-split evaluation, answer filter.
func (cv *coreView) replayBuffered(tr *tracer, kind, text string) (answers [][]term.Term, err error) {
	tr.opSpan(kind, func() {
		var q lang.Query
		tr.do("lang.parse", func() { q, err = lang.ParseQuery(text) })
		if err != nil {
			return
		}
		goal := q.Goals[0]
		comp, perr := cv.plan(tr, goal, true)
		if err = perr; err != nil {
			return
		}
		var raw [][]term.Term
		tr.do("counting.query", func() {
			raw, err = counting.New(cv.db.Program(), cv.db.Catalog(), comp, counting.Options{}).Query(goal)
		})
		if err != nil {
			return
		}
		tr.do("partial.filter", func() { answers, err = partial.FilterAnswers(goal, nil, raw) })
	})
	return answers, err
}

// replayTopDown replays one nonlinear query (qsort) the way
// core.runTopDownConjunction does: parse, plan with split, catalog
// snapshot, tabled top-down resolution.
func (cv *coreView) replayTopDown(tr *tracer, kind, text string) (answers [][]term.Term, err error) {
	tr.opSpan(kind, func() {
		var q lang.Query
		tr.do("lang.parse", func() { q, err = lang.ParseQuery(text) })
		if err != nil {
			return
		}
		if _, err = cv.plan(tr, q.Goals[0], true); err != nil {
			return
		}
		var work *relation.Catalog
		tr.do("relation.snapshot", func() { work = cv.db.Catalog().Snapshot() })
		var substs []term.Subst
		tr.do("topdown.solve", func() {
			substs, err = topdown.New(cv.db.Program(), work, topdown.Options{}).SolveConjunction(q.Goals)
		})
		for _, s := range substs {
			answers = append(answers, s.ResolveAll(q.Goals[0].Args))
		}
	})
	return answers, err
}

// replayer accumulates what a timed replay loop needs for the
// unattributed share — the time of each kind of operation through
// core's own entry point — and counts operations attempted and failed.
type replayer struct {
	core      map[string][]time.Duration
	attempted int
	failed    int
}

// done records one replayed operation of the given kind; kind "" is a
// check that has no core-path time.
func (r *replayer) done(kind string, core time.Duration, ok bool) {
	if kind != "" {
		if r.core == nil {
			r.core = make(map[string][]time.Duration)
		}
		r.core[kind] = append(r.core[kind], core)
	}
	r.attempted++
	if !ok {
		r.failed++
	}
}

// unattributed is 1 − (layer spans ÷ time through core's entry point),
// each taken as the median per operation and summed over the kinds.
func (r *replayer) unattributed(tr *tracer) float64 {
	var spans, core time.Duration
	for kind, ds := range r.core {
		spans += medianDur(tr.stageSums(kind))
		core += medianDur(ds)
	}
	if core <= 0 {
		return 0
	}
	return 1 - float64(spans)/float64(core)
}

// magicStageMetrics fills the per-stage medians of replayed magic-set
// operations of one kind.
func magicStageMetrics(tr *tracer, kind string, m map[string]float64) {
	m["lang.parse_query_us"] = us(tr.selfMedian(kind, "lang.parse"))
	m["chain.compile_us"] = us(tr.selfMedian(kind, "chain.compile"))
	m["magic.rewrite_us"] = us(tr.selfMedian(kind, "magic.rewrite"))
	m["relation.snapshot_us"] = us(tr.selfMedian(kind, "relation.snapshot"))
	m["partial.filter_us"] = us(tr.selfMedian(kind, "partial.filter"))
}

// magicCounts fills the work counts of one fixed probe query through
// the public API; they repeat exactly for one seed.
func magicCounts(db *chainsplit.DB, q string, m map[string]float64) bool {
	res, err := db.Query(q)
	if err != nil {
		return false
	}
	m["seminaive.rounds"] = float64(res.Metrics.Iterations)
	m["seminaive.derived"] = float64(res.Metrics.DerivedTuples)
	m["seminaive.matches"] = float64(res.Metrics.Matches)
	if res.Metrics.Matches > 0 {
		m["seminaive.derived_per_match"] = float64(res.Metrics.DerivedTuples) / float64(res.Metrics.Matches)
	}
	m["magic.magic_tuples"] = float64(res.Metrics.MagicTuples)
	return true
}

// planningProbes times the planning layers on one recursive predicate:
// building the analysis from scratch (paid once per rule change) and
// computing the split of its first recursive rule.
func planningProbes(cv *coreView, pred string, arity int, ad string, m map[string]float64) bool {
	prog := cv.db.Program()
	m["adorn.analysis_us"] = us(timeMedian(20, func() { adorn.NewAnalysis(prog).Finite(pred, arity, ad) }))
	comp, err := chain.Compile(prog, cv.an.Graph(), pred+"/"+strconv.Itoa(arity))
	if err != nil || len(comp.RecRules) == 0 {
		return false
	}
	m["chain.split_us"] = us(timeMedian(50, func() { chain.ComputeSplit(cv.an, comp.RecRules[0], ad) }))
	return true
}

// costProbe times the cost model's walk (Algorithm 3.1's split or
// follow decision, literal by literal) along the first chain generating
// path of the predicate's first recursive rule.
func costProbe(cv *coreView, pred string, arity int, ad string, m map[string]float64) bool {
	comp, err := chain.Compile(cv.db.Program(), cv.an.Graph(), pred+"/"+strconv.Itoa(arity))
	if err != nil || len(comp.RecRules) == 0 || len(comp.RecRules[0].Paths) == 0 {
		return false
	}
	rr := comp.RecRules[0]
	model := &cost.Model{Cat: cv.db.Catalog()}
	bound := adorn.BoundVarsOfHead(rr.Rule.Head, ad)
	m["cost.split_path_us"] = us(timeMedian(50, func() {
		model.SplitPath(rr.Rule, rr.Paths[0].Literals, bound, cost.DefaultThresholds)
	}))
	return true
}

// publicProbes times public-API calls that bypass evaluation: a point
// lookup on an EDB relation, Explain, and what the public wrapper
// (retry, admission, row conversion) adds to the same lookup through
// core.DB.
func publicProbes(db *chainsplit.DB, cv *coreView, lookup, explain string, m map[string]float64) bool {
	ok := true
	pub := timeMedian(200, func() {
		if _, err := db.Query(lookup); err != nil {
			ok = false
		}
	})
	m["core.edb_lookup_us"] = us(pub)
	if explain != "" {
		m["core.explain_us"] = us(timeMedian(50, func() {
			if _, err := db.Explain(explain); err != nil {
				ok = false
			}
		}))
	}
	if cv != nil {
		inner := timeMedian(200, func() {
			if _, err := cv.corePath(lookup); err != nil {
				ok = false
			}
		})
		m["chainsplit.query_overhead_us"] = us(pub - inner)
	}
	return ok
}

// ---- family-recursion and short-query --------------------------------

func (e *familyEnv) layers(ph *phase, budget time.Duration, rng *rand.Rand, tr *tracer, m map[string]float64) (int, int) {
	rep := &replayer{}
	cvA, err := newCoreView(e.progA, workload.SGRules())
	if err != nil {
		return 1, 1
	}
	kind, gen := "sg", e.sz.famGens
	if e.short {
		kind, gen = "short", e.sz.shortGen
	}
	var cvB *coreView
	if !e.short {
		if cvB, err = newCoreView(e.progB, workload.SCSGRules()); err != nil {
			return 1, 1
		}
	}
	replay := func(cv *coreView, w *walker, kind, pred string, gen int) {
		name := workload.PersonName(gen, rng.Intn(1<<gen))
		text := "?- " + pred + "(" + name + ", Y)."
		d, err := cv.corePath(text)
		ok := err == nil
		if ok {
			answers, _, _, rerr := cv.replayMagic(tr, kind, text)
			ok = rerr == nil && w.check(answers, w.sameGen(w.t.id[name], pred == "scsg"))
		}
		rep.done(kind, d, ok)
	}
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		replay(cvA, e.walkA[0], kind, "sg", gen)
		if !e.short {
			replay(cvB, e.walkB[0], "scsg", "scsg", e.sz.scsgGens)
		}
	}
	magicStageMetrics(tr, kind, m)
	if e.short {
		m["seminaive.eval_short_us"] = us(tr.selfMedian(kind, "seminaive.eval"))
	} else {
		m["seminaive.eval_ms"] = ms(tr.selfMedian(kind, "seminaive.eval"))
	}
	m["core.query_unattributed_share"] = rep.unattributed(tr)

	// Counts from the fixed probe person.
	probe := "?- sg(" + e.probeA + ", Y)."
	ok := magicCounts(e.dbA, probe, m)
	answers, _, rw, err := cvA.replayMagic(newTracer(), kind, probe)
	if err != nil {
		return 1, 1
	}
	m["magic.rules_out"] = float64(len(rw.Program.Rules))
	st := e.dbA.Stats()
	if e.dbB != nil {
		stB := e.dbB.Stats()
		st.Queued, st.Rejected = st.Queued+stB.Queued, st.Rejected+stB.Rejected
	}
	m["admission.queued"], m["admission.shed"] = float64(st.Queued), float64(st.Rejected)

	ok = planningProbes(cvA, "sg", 2, "bf", m) && ok
	lookup := "?- parent(" + workload.PersonName(gen, 0) + ", Y)."
	ok = publicProbes(e.dbA, cvA, lookup, probe, m) && ok
	text := e.progA.String()
	m["lang.parse_program_ms"] = ms(timeMedian(3, func() {
		if _, err := lang.Parse(text); err != nil {
			ok = false
		}
	}))
	if e.short {
		ok = costProbe(cvA, "sg", 2, "bf", m) && e.shortProbes(cvA, m) && ok
	} else {
		ok = e.deepProbes(cvA, cvB, rw, answers, m) && ok
	}
	rep.done("", 0, ok)
	return rep.attempted, rep.failed
}

// deepProbes are family-recursion's own: the headline split-vs-follow
// ratio on scsg, a two-worker fixpoint, the storage layer's primitive
// operations, and sorting a deep answer set.
func (e *familyEnv) deepProbes(cvA, cvB *coreView, rw *magic.Rewritten, answers [][]term.Term, m map[string]float64) bool {
	ok := true
	q := "?- scsg(" + workload.PersonName(e.sz.scsgGens, 0) + ", Y)."
	split, err1 := e.dbB.Query(q, chainsplit.WithStrategy(chainsplit.StrategyMagicSplit))
	follow, err2 := e.dbB.Query(q, chainsplit.WithStrategy(chainsplit.StrategyMagicFollow))
	if err1 != nil || err2 != nil || rendered(split) != rendered(follow) {
		ok = false
	} else {
		m["magic.scsg_split_derived"] = float64(split.Metrics.DerivedTuples)
		m["magic.scsg_follow_derived"] = float64(follow.Metrics.DerivedTuples)
	}
	// The cost model's walk is timed on scsg's single chain generating
	// path, the one whose split decision Algorithm 3.1 is about.
	ok = costProbe(cvB, "scsg", 2, "bf", m) && ok

	cat := cvA.db.Catalog()
	m["seminaive.eval_w2_ms"] = ms(timeMedian(5, func() {
		if _, err := seminaive.Eval(rw.Program, cat.Snapshot(), seminaive.Options{Workers: 2}); err != nil {
			ok = false
		}
	}))

	const n = 10000
	left, right := make([]relation.Tuple, n), make([]relation.Tuple, n)
	for i := range left {
		a, b, c := term.NewSym("ra"+strconv.Itoa(i)), term.NewSym("rb"+strconv.Itoa(i)), term.NewSym("rc"+strconv.Itoa(i))
		left[i], right[i] = relation.Tuple{a, b}, relation.Tuple{b, c}
	}
	var l, r *relation.Relation
	m["relation.insert_ns"] = float64(timeMedian(5, func() {
		l, r = relation.New("l", 2), relation.New("r", 2)
		for i := range left {
			l.Insert(left[i])
			r.Insert(right[i])
		}
	})) / (2 * n)
	m["relation.contains_ns"] = float64(perCall(n, func(i int) { l.Contains(left[i]) }))
	m["relation.lookup_ns"] = float64(perCall(n, func(i int) { l.LookupOn([]int{0}, left[i][:1]) }))
	m["relation.join_us"] = us(timeMedian(5, func() {
		if l.Join("j", r, []int{1}, []int{0}).Len() != n {
			ok = false
		}
	}))

	shuffled := make([][]term.Term, len(answers))
	m["core.sort_answers_us"] = us(timeMedian(10, func() {
		copy(shuffled, answers)
		core.SortAnswers(shuffled)
	}))
	return ok
}

// shortProbes are short-query's own: the magic rewrite on a small
// family (its cost should not depend on the number of base facts, so
// the growth exponent should be 0) and an uncontended admission grant.
func (e *familyEnv) shortProbes(cvA *coreView, m map[string]float64) bool {
	smallGens := e.sz.famGens - 5
	small := workload.Family(workload.FamilyConfig{Generations: smallGens, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 1})
	cvS, err := newCoreView(small, workload.SGRules())
	if err != nil {
		return false
	}
	q, err := lang.ParseQuery("?- sg(" + workload.PersonName(e.sz.shortGen, 0) + ", Y).")
	if err != nil {
		return false
	}
	ok := true
	d := timeMedian(50, func() {
		cfg := magic.Config{Policy: magic.PolicyCost, Model: &cost.Model{Cat: cvS.db.Catalog()}, Supplementary: true}
		if _, err := magic.Rewrite(cvS.db.Program(), q.Goals[0], cfg); err != nil {
			ok = false
		}
	})
	m["magic.rewrite_small_us"] = us(d)
	large := time.Duration(m["magic.rewrite_us"] * float64(time.Microsecond))
	m["magic.rewrite_growth_exp"] = growthExp(d, large, len(small.Facts), len(e.progA.Facts))

	ctl := admission.New(admission.Config{})
	ctx := context.Background()
	m["admission.acquire_ns"] = float64(perCall(100000, func(int) {
		_, release, err := ctl.Acquire(ctx)
		if err != nil {
			ok = false
			return
		}
		release()
	}))
	return ok
}

// ---- functional-recursion --------------------------------------------

func (e *listEnv) layers(ph *phase, budget time.Duration, rng *rand.Rand, tr *tracer, m map[string]float64) (int, int) {
	rep := &replayer{}
	cv, err := newCoreView(nil, workload.SortRules())
	if err != nil {
		return 1, 1
	}
	m["chainsplit.append_growth_exp"] = growthExp(medianDur(ph.ops[0]), medianDur(ph.ops[1]), e.sz.listSmall[0], e.sz.listLarge[0])
	m["chainsplit.isort_growth_exp"] = growthExp(medianDur(ph.ops[2]), medianDur(ph.ops[3]), e.sz.listSmall[1], e.sz.listLarge[1])

	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		for k, prog := range listPrograms {
			text, want := listQuery(prog, randomList(rng, e.sz.listLarge[k]))
			d, err := cv.corePath(text)
			ok := err == nil
			if ok {
				var answers [][]term.Term
				if prog == "qsort" {
					answers, err = cv.replayTopDown(tr, prog, text)
				} else {
					answers, err = cv.replayBuffered(tr, prog, text)
				}
				ok = err == nil && len(answers) == 1 &&
					term.Equal(answers[0][len(answers[0])-1], term.IntList(want...))
			}
			rep.done(prog, d, ok)
		}
	}
	m["lang.parse_list_query_us"] = us(tr.selfMedian("append", "lang.parse"))
	m["chain.compile_us"] = us(tr.selfMedian("append", "chain.compile"))
	m["chain.split_us"] = us(tr.selfMedian("append", "chain.split"))
	m["partial.filter_us"] = us(tr.selfMedian("append", "partial.filter"))
	m["counting.append_ms"] = ms(tr.selfMedian("append", "counting.query"))
	m["counting.isort_ms"] = ms(tr.selfMedian("isort", "counting.query"))
	m["topdown.qsort_ms"] = ms(tr.selfMedian("qsort", "topdown.solve"))
	m["relation.snapshot_us"] = us(tr.selfMedian("qsort", "relation.snapshot"))
	m["core.query_unattributed_share"] = rep.unattributed(tr)

	// Counts from fixed probe lists.
	ok := true
	probe := rand.New(rand.NewSource(7))
	q, _ := listQuery("append", randomList(probe, e.sz.listLarge[0]))
	if res, err := e.db.Query(q); err == nil {
		m["counting.contexts"] = float64(res.Metrics.Contexts)
		m["counting.edges"] = float64(res.Metrics.Edges)
		m["counting.up_joins"] = float64(res.Metrics.UpJoins)
	} else {
		ok = false
	}
	q, _ = listQuery("qsort", randomList(probe, e.sz.listLarge[2]))
	if res, err := e.db.Query(q); err == nil && res.Metrics.Calls > 0 {
		m["topdown.steps"] = float64(res.Metrics.Steps)
		m["topdown.calls"] = float64(res.Metrics.Calls)
		m["topdown.table_hit_ratio"] = float64(res.Metrics.TableHits) / float64(res.Metrics.Calls)
	} else {
		ok = false
	}
	m["adorn.analysis_us"] = us(timeMedian(20, func() { adorn.NewAnalysis(cv.db.Program()).Finite("append", 3, "bbf") }))
	m["lang.parse_program_ms"] = ms(timeMedian(50, func() { lang.Parse(workload.SortRules()) }))
	ok = travelProbes(e.sz, m) && ok
	termProbes(m)
	rep.done("", 0, ok)
	return rep.attempted, rep.failed
}

// travelProbes times buffered evaluation and constraint pushing
// (Algorithm 3.3) on the paper's travel recursion over a layered,
// acyclic flight network.
func travelProbes(sz sizes, m map[string]float64) bool {
	flights := workload.Flights(workload.FlightsConfig{Cities: 6, OutDegree: 2, Layered: true, Layers: sz.flightLayers, Seed: 1})
	cv, err := newCoreView(flights, workload.TravelRules())
	if err != nil {
		return false
	}
	q, err := lang.ParseQuery("?- travel(L, " + workload.CityName(0, 0) + ", DT, A, AT, F), F =< 600.")
	if err != nil {
		return false
	}
	goal, cons := q.Goals[0], q.Goals[1:]
	comp, err := chain.Compile(cv.db.Program(), cv.an.Graph(), goal.Key())
	if err != nil {
		return false
	}
	ok := true
	m["counting.travel_ms"] = ms(timeMedian(10, func() {
		answers, err := counting.New(cv.db.Program(), cv.db.Catalog(), comp, counting.Options{}).Query(goal)
		if err != nil || len(answers) == 0 {
			ok = false
		}
	}))
	m["partial.push_us"] = us(timeMedian(20, func() {
		if _, err := partial.PushConstraints(cv.an, comp, cv.db.Catalog(), goal, cons); err != nil {
			ok = false
		}
	}))
	return ok
}

// termProbes times the term layer's per-element costs. unify_list is
// one append step — [X|T] against a ground n-list — whose occurs walk
// over the bound tail is what makes append quadratic; its growth
// exponent should be 0.
func termProbes(m map[string]float64) {
	rng := rand.New(rand.NewSource(11))
	pattern := term.Cons(term.NewVar("X"), term.NewVar("T"))
	unify := func(n int) time.Duration {
		ground := term.IntList(randomList(rng, n)...)
		return perCall(200, func(int) { term.Unify(term.NewSubst(), pattern, ground) })
	}
	small, large := unify(256), unify(1024)
	m["term.unify_list_256_ns"] = float64(small)
	m["term.unify_list_1024_ns"] = float64(large)
	m["term.unify_growth_exp"] = growthExp(small, large, 256, 1024)

	const n = 1024
	lists := make([][]int64, 20)
	for i := range lists {
		lists[i] = randomList(rng, n)
		for j := range lists[i] {
			lists[i][j] += 200000 // values no workload has interned
		}
	}
	var built term.Term
	i := 0
	m["term.intlist_ns_per_elem"] = float64(timeMedian(len(lists), func() {
		built = term.IntList(lists[i]...)
		i++
	})) / n
	var buf []byte
	m["term.append_key_ns_per_elem"] = float64(timeMedian(20, func() { buf = term.AppendKey(buf[:0], built) })) / n
}

// ---- write-durable ----------------------------------------------------

// writeStages replays durable writes stage by stage: the copy-on-write
// generation build (LoadTuples on an in-memory core.DB of the same
// content), the log append with fsync, and the compacted snapshot when
// the store says one is due.
type writeStages struct {
	mem   *core.DB
	store *wal.Store
}

func newWriteStages(facts *program.Program, rules, dir string) (*writeStages, error) {
	cv, err := newCoreView(facts, rules)
	if err != nil {
		return nil, err
	}
	store, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	return &writeStages{mem: cv.db, store: store}, nil
}

func (ws *writeStages) replay(tr *tracer, tuples [][]term.Term, extra func(wal.Record) error) (err error) {
	tr.opSpan("write", func() {
		tr.do("core.load_tuples_mem", func() { err = ws.mem.LoadTuples("parent", tuples) })
		if err != nil {
			return
		}
		rec := factsRecord(ws.store.LastSeq()+1, tuples)
		tr.do("wal.append_sync", func() { err = ws.store.Append(rec) })
		if err == nil && ws.store.SnapshotDue() {
			tr.do("wal.snapshot", func() { err = ws.store.WriteSnapshot(ws.image()) })
		}
		if err == nil && extra != nil {
			err = extra(rec)
		}
	})
	return err
}

// factsRecord is the log record of one LoadFacts("parent", tuples).
func factsRecord(seq uint64, tuples [][]term.Term) wal.Record {
	rec := wal.Record{Seq: seq, Type: wal.RecFacts, Pred: "parent", Tuples: make([]relation.Tuple, len(tuples))}
	for i, t := range tuples {
		rec.Tuples[i] = relation.Tuple(t)
	}
	return rec
}

// image is the in-memory database's snapshot, renumbered to the
// store's position (the two count generations from different origins).
func (ws *writeStages) image() *wal.Snapshot {
	img := ws.mem.SnapshotImage()
	img.Seq = ws.store.LastSeq()
	return img
}

func (e *durableEnv) layers(ph *phase, budget time.Duration, rng *rand.Rand, tr *tracer, m map[string]float64) (int, int) {
	rep := &replayer{}
	for _, d := range e.stalls {
		m["wal.snapshot_stall_ms"] = max(m["wal.snapshot_stall_ms"], ms(d))
	}

	dir, err := tempDir("stages-")
	if err != nil {
		return 1, 1
	}
	defer os.RemoveAll(dir)
	ws, err := newWriteStages(e.prog, workload.SGRules(), dir+"/sync")
	if err != nil {
		return 1, 1
	}
	// The store under test has grown by e.written tuples since its
	// preload; the replayed stages get as many, so that both build
	// generations of the same size.
	grown, _, _ := batchOf(rng, "g", 0, e.written, e.sz.durableGens)
	if ws.mem.LoadTuples("parent", grown) != nil {
		return 1, 1
	}
	next := 0
	fresh := func() [][]term.Term {
		tuples, _, _ := batchOf(rng, "s", next, e.sz.batch, e.sz.durableGens)
		next += len(tuples)
		return tuples
	}
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		t := time.Now()
		err := e.db.LoadFacts("parent", fresh())
		d := time.Since(t)
		ok := err == nil && ws.replay(tr, fresh(), nil) == nil
		rep.done("write", d, ok)
	}
	m["core.load_tuples_mem_ms"] = ms(tr.selfMedian("write", "core.load_tuples_mem"))
	m["wal.append_sync_us"] = us(tr.selfMedian("write", "wal.append_sync"))
	m["core.query_unattributed_share"] = rep.unattributed(tr)

	ok := true
	check := func(err error) {
		if err != nil {
			ok = false
		}
	}
	m["wal.encode_us"] = us(timeMedian(200, func() {
		_, err := wal.EncodeRecord(factsRecord(1, fresh()), wal.NewEncDict())
		check(err)
	}))
	nosync, _, err := wal.Open(dir+"/nosync", wal.Options{NoSync: true, SnapshotEvery: -1})
	check(err)
	if err == nil {
		m["wal.append_nosync_us"] = us(timeMedian(200, func() {
			check(nosync.Append(factsRecord(nosync.LastSeq()+1, fresh())))
		}))
		check(nosync.Close())
	}
	m["wal.fsync_us"] = m["wal.append_sync_us"] - m["wal.append_nosync_us"]
	m["wal.snapshot_ms"] = ms(timeMedian(3, func() { check(ws.store.WriteSnapshot(ws.image())) }))
	check(ws.store.Close())
	m["wal.open_ms"] = ms(timeMedian(3, func() {
		s, _, err := wal.Open(dir+"/sync", wal.Options{})
		check(err)
		if err == nil {
			check(s.Close())
		}
	}))
	m["relation.snapshot_us"] = us(timeMedian(200, func() { ws.mem.Catalog().Snapshot() }))
	m["core.load_text_ms"] = ms(timeMedian(50, func() {
		text := (&program.Program{Facts: atoms("parent", fresh())}).String()
		res, err := lang.Parse(text)
		check(err)
		if err == nil {
			check(ws.mem.Load(res.Program))
		}
	}))
	m["lang.parse_program_ms"] = ms(timeMedian(3, func() {
		_, err := lang.Parse(e.text)
		check(err)
	}))
	ok = publicProbes(e.db, nil, "?- parent("+workload.PersonName(e.sz.durableGens, 0)+", Y).", "", m) && ok

	// Recovery: close and reopen five times, state checked each time.
	var recoveries []time.Duration
	for i := 0; i < 5; i++ {
		d, same := e.reopen()
		recoveries = append(recoveries, d)
		rep.done("", 0, same)
	}
	m["chainsplit.recovery_s"] = medianDur(recoveries).Seconds()

	// Counts over a fixed block of writes on a fresh store, so that the
	// snapshot cadence is crossed at the same writes every time.
	ok = walCounts(func() (env, error) {
		fe, _, err := setupDurable(1, e.sz)
		return fe, err
	}, e.sz, m) && ok
	rep.done("", 0, ok)
	return rep.attempted, rep.failed
}

func atoms(pred string, tuples [][]term.Term) []program.Atom {
	out := make([]program.Atom, len(tuples))
	for i, t := range tuples {
		out[i] = program.Atom{Pred: pred, Args: t}
	}
	return out
}

// walCounts runs sz.countOps cycles on a freshly set-up environment and
// fills the log and replication counts from the registry's counters.
func walCounts(setup func() (env, error), sz sizes, m map[string]float64) bool {
	fe, err := setup()
	if err != nil {
		if fe != nil {
			fe.close()
		}
		return false
	}
	appends, bytes, snaps := obsv.WALAppends.Value(), obsv.WALBytes.Value(), obsv.WALSnapshots.Value()
	shipped, shippedBytes := obsv.ReplicaRecordsShipped.Value(), obsv.ReplicaBytesShipped.Value()
	rng := rand.New(rand.NewSource(5))
	rec := &recorder{ops: make([][]time.Duration, 3)}
	for i := 0; i < sz.countOps; i++ {
		fe.cycle(0, rng, rec)
	}
	ok := rec.failed == 0 && fe.close() == nil
	m["wal.appends"] = float64(obsv.WALAppends.Value() - appends)
	m["wal.snapshots"] = float64(obsv.WALSnapshots.Value() - snaps)
	if n := m["wal.appends"]; n > 0 {
		m["wal.bytes_per_fact"] = float64(obsv.WALBytes.Value()-bytes) / (n * float64(sz.batch))
	}
	if n := obsv.ReplicaRecordsShipped.Value() - shipped; n > 0 {
		m["replica.records_shipped"] = float64(n)
		m["replica.ship_bytes_per_fact"] = float64(obsv.ReplicaBytesShipped.Value()-shippedBytes) / float64(n*int64(sz.batch))
	}
	return ok
}

// ---- mixed-replicated -------------------------------------------------

func (e *replEnv) layers(ph *phase, budget time.Duration, rng *rand.Rand, tr *tracer, m map[string]float64) (int, int) {
	rep := &replayer{}
	dir, err := tempDir("stages-")
	if err != nil {
		return 1, 1
	}
	defer os.RemoveAll(dir)
	ws, err := newWriteStages(e.prog, workload.SGRules(), dir+"/sync")
	if err != nil {
		return 1, 1
	}
	defer ws.store.Close()
	cv := &coreView{db: ws.mem, an: adorn.NewAnalysis(ws.mem.Program())}

	// The follower stage: shipped records applied directly, on an
	// in-memory follower seeded with the same program.
	follower := core.NewFollower()
	seed := wal.Record{Seq: 1, Type: wal.RecExec, Src: e.text + workload.SGRules()}
	if err := follower.ApplyReplica(seed); err != nil {
		return 1, 1
	}
	apply := func(rec wal.Record) (err error) {
		rec.Seq = follower.Generation() + 1
		tr.do("replica.apply", func() { err = follower.ApplyReplica(rec) })
		return err
	}

	// Every read, replayed or through core's entry point, runs against a
	// generation a write has just produced — as in the workload itself,
	// where the first read of a generation pays for whatever that
	// generation builds lazily.
	gen, next := e.sz.replGens, 0
	w := newWalker(newTree(e.prog))
	write := func() (tuples [][]term.Term) {
		tuples, kids, parents := batchOf(rng, "s", next, e.sz.batch, gen)
		next += len(tuples)
		for i, kid := range kids {
			w.t.addChild(kid, parents[i])
		}
		return tuples
	}
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		ok := ws.replay(tr, write(), apply) == nil
		name := workload.PersonName(gen, rng.Intn(1<<gen))
		text := "?- sg(" + name + ", Y)."
		if ok {
			answers, _, _, err := cv.replayMagic(tr, "sg", text)
			ok = err == nil && w.check(answers, w.sameGen(w.t.id[name], false))
		}
		ok = ok && ws.mem.LoadTuples("parent", write()) == nil
		d, err := cv.corePath(text)
		rep.done("sg", d, ok && err == nil)
	}
	magicStageMetrics(tr, "sg", m)
	m["seminaive.eval_short_us"] = us(tr.selfMedian("sg", "seminaive.eval"))
	m["core.query_unattributed_share"] = rep.unattributed(tr)
	m["core.load_tuples_mem_ms"] = ms(tr.selfMedian("write", "core.load_tuples_mem"))
	m["wal.append_sync_us"] = us(tr.selfMedian("write", "wal.append_sync"))
	m["replica.apply_ms"] = ms(tr.selfMedian("write", "replica.apply"))

	probe := "?- sg(" + workload.PersonName(gen, 0) + ", Y)."
	ok := magicCounts(e.follower, probe, m)
	if _, _, rw, err := cv.replayMagic(newTracer(), "sg", probe); err == nil {
		m["magic.rules_out"] = float64(len(rw.Program.Rules))
	} else {
		ok = false
	}
	st := e.follower.Stats()
	m["admission.queued"], m["admission.shed"] = float64(st.Queued), float64(st.Rejected)
	ok = planningProbes(cv, "sg", 2, "bf", m) && costProbe(cv, "sg", 2, "bf", m) && ok
	ok = publicProbes(e.follower, nil, "?- parent("+workload.PersonName(gen, 0)+", Y).", probe, m) && ok
	m["lang.parse_program_ms"] = ms(timeMedian(3, func() {
		if _, err := lang.Parse(e.text); err != nil {
			ok = false
		}
	}))

	// Bootstrap: a fresh durable follower from nothing to caught up.
	n := 0
	m["replica.bootstrap_ms"] = ms(timeMedian(3, func() {
		n++
		f, err := chainsplit.OpenFollower(e.addr, chainsplit.Config{Dir: dir + "/boot" + strconv.Itoa(n)})
		if err != nil {
			ok = false
			return
		}
		if !awaitGeneration(f, e.leader.Generation()) {
			ok = false
		}
		if f.Close() != nil {
			ok = false
		}
	}))

	ok = walCounts(func() (env, error) {
		fe, _, err := setupReplicated(1, e.sz)
		return fe, err
	}, e.sz, m) && ok
	rep.done("", 0, ok)
	return rep.attempted, rep.failed
}
