package experiments

import (
	"errors"
	"fmt"
	"strings"

	"chainsplit/internal/adorn"
	"chainsplit/internal/chain"
	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "T4",
		Title:    "append: finiteness-based chain-split is necessary and sufficient",
		PaperRef: "§1.2 and §2.2 (finiteness-based chain-split)",
		Claim: "append's compiled chain contains an infinitely evaluable cons that must be delayed; " +
			"with the split, evaluation is finite and linear",
		Run: runT4,
	})
}

func runT4(cfg Config) (*Report, error) {
	r := &Report{}

	// Part 1: static finiteness analysis of append under every
	// adornment, and the split the compiler derives.
	res, err := lang.Parse(workload.AppendRules())
	if err != nil {
		return nil, err
	}
	prog := program.Rectify(res.Program)
	an := adorn.NewAnalysis(prog)
	comp, err := chain.Compile(prog, program.NewDepGraph(prog), "append/3")
	if err != nil {
		return nil, err
	}
	if len(comp.RecRules) != 1 {
		return nil, fmt.Errorf("T4: append compiled to %d recursive rules, want 1", len(comp.RecRules))
	}
	rec := comp.RecRules[0]
	preds := func(idx []int) string {
		var out []string
		for _, i := range idx {
			out = append(out, rec.Rule.Body[i].Pred)
		}
		return strings.Join(out, ",")
	}
	t := r.table("static analysis (append/3):", "adornment", "finitely-evaluable", "split")
	var finite, rejected []string
	for _, ad := range []string{"bbf", "bbb", "ffb", "bff", "fbf", "fff"} {
		if !an.Finite("append", 3, ad) {
			rejected = append(rejected, ad)
			t.add(ad, false, "-")
			continue
		}
		finite = append(finite, ad)
		sp, err := chain.ComputeSplit(an, rec, ad)
		if err != nil {
			return nil, err
		}
		t.add(ad, true, fmt.Sprintf("eval{%s} delayed{%s}", preds(sp.Eval), preds(sp.Delayed)))
		r.check(ad == "bbb" || preds(sp.Delayed) == "cons", "append^%s delays {%s}, not exactly one cons", ad, preds(sp.Delayed))
	}
	r.check(strings.Join(finite, "/") == "bbf/bbb/ffb", "finitely evaluable adornments are %s, want bbf/bbb/ffb", strings.Join(finite, "/"))

	// Part 2: the chain-split (buffered) plan scales linearly.
	t2 := r.table("buffered chain-split evaluation of append^bbf (W = U ++ [-1]):", "n", "contexts", "buffered-edges")
	sizes := []int{100, 250, 500, 1000}
	var contexts, edges []int
	for _, n := range sizes {
		vals := workload.RandomInts(n, 1000, int64(n))
		db, err := buildDB(workload.AppendRules())
		if err != nil {
			return nil, err
		}
		goal := program.NewAtom("append", term.IntList(vals...), term.IntList(-1), term.NewVar("W"))
		out, err := queryDB(cfg, db, []program.Atom{goal}, core.Options{})
		if err != nil {
			return nil, err
		}
		m := out.Metrics
		t2.add(n, m.Contexts, m.Edges)
		r.check(len(out.Answers) == 1 && term.ListLen(out.Answers[0][2]) == n+1, "n=%d: wrong append answer", n)
		r.check(m.Contexts == n+1 && m.Edges == n, "n=%d: %d contexts and %d edges, not n+1 and n", n, m.Contexts, m.Edges)
		contexts, edges = append(contexts, m.Contexts), append(edges, m.Edges)
	}

	// Part 3: the unsplit plan is impossible: a query that binds only
	// the result's tail is statically rejected.
	db, err := buildDB(workload.AppendRules())
	if err != nil {
		return nil, err
	}
	goals, err := lang.ParseQuery("?- append(U, [3], W).")
	if err != nil {
		return nil, err
	}
	_, qerr := queryDB(cfg, db, goals.Goals, core.Options{})
	r.table(fmt.Sprintf("chain-following / infeasible binding check:\n  ?- append(U, [3], W).  →  %v", qerr))
	r.check(errors.Is(qerr, core.ErrNotFinitelyEvaluable), "?- append(U, [3], W). was not rejected as not finitely evaluable: %v", qerr)

	r.Measured = fmt.Sprintf("static: %s finitely evaluable (bbf and ffb delay exactly one cons), %s rejected; buffered run: contexts %s and edges %s for n = %s",
		strings.Join(finite, "/"), strings.Join(rejected, "/"), series(contexts...), series(edges...), series(sizes...))
	return r, nil
}
