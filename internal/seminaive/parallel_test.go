package seminaive

// Engine-level determinism of parallel rounds: for every worker count,
// derived relations must match serial evaluation tuple-for-tuple in
// insertion order, and Stats must be identical. Run with -race to
// check the worker pool itself.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"chainsplit/internal/builtin"
	"chainsplit/internal/cost"
	"chainsplit/internal/everr"
	"chainsplit/internal/faultinject"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/term"
	"chainsplit/internal/workload"
)

// mutualSrc has a multi-rule, multi-predicate SCC so one round carries
// several work items — the case parallel rounds actually fan out.
const mutualSrc = `
even(z).
even(s(X)) :- odd(X).
odd(s(X)) :- even(X).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(b, e).
`

func evalWorkers(t *testing.T, src string, opts Options) (*relation.Catalog, *Stats, error) {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	cat := relation.NewCatalog()
	stats, evalErr := Eval(p, cat, opts)
	return cat, stats, evalErr
}

// requireSameCatalog asserts got matches want relation-for-relation,
// including insertion order.
func requireSameCatalog(t *testing.T, label string, want, got *relation.Catalog) {
	t.Helper()
	wn, gn := want.Names(), got.Names()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("%s: relation names differ: %v vs %v", label, wn, gn)
	}
	for _, name := range wn {
		wr, gr := want.Get(name), got.Get(name)
		if wr.Len() != gr.Len() {
			t.Fatalf("%s: %s has %d tuples, serial has %d", label, name, gr.Len(), wr.Len())
		}
		for i := 0; i < wr.Len(); i++ {
			if wr.At(i).String() != gr.At(i).String() {
				t.Fatalf("%s: %s insertion order diverges at %d: %v vs %v",
					label, name, i, gr.At(i), wr.At(i))
			}
		}
	}
}

// magicFamilyCase is the magic-rewritten (PolicyCost, supplementary)
// program of goal over a seeded family, with that family's catalog
// frozen so every evaluation can run on its own snapshot.
func magicFamilyCase(t *testing.T, rules, goal string, fc workload.FamilyConfig) (*program.Program, *relation.Catalog) {
	t.Helper()
	cat := relation.NewCatalog()
	for _, f := range workload.Family(fc).Facts {
		cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
	}
	cat.Freeze()
	res, err := lang.Parse(rules)
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery("?- " + goal + ".")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := magic.Rewrite(program.Rectify(res.Program), q.Goals[0], magic.Config{Policy: magic.PolicyCost, Model: &cost.Model{Cat: cat}, Supplementary: true})
	if err != nil {
		t.Fatal(err)
	}
	return rw.Program, cat
}

func TestParallelMatchesSerial(t *testing.T) {
	type evalCase struct {
		name string
		eval func(Options) (*relation.Catalog, *Stats, error)
	}
	fromSrc := func(name, src string) evalCase {
		return evalCase{name, func(o Options) (*relation.Catalog, *Stats, error) { return evalWorkers(t, src, o) }}
	}
	// The magic-rewritten sg and scsg are the programs the benchmark's
	// two-worker evaluation probe runs.
	fromMagic := func(name string, p *program.Program, cat *relation.Catalog) evalCase {
		return evalCase{name, func(o Options) (*relation.Catalog, *Stats, error) {
			snap := cat.Snapshot()
			stats, err := Eval(p, snap, o)
			return snap, stats, err
		}}
	}
	sgProg, sgCat := magicFamilyCase(t, workload.SGRules(), "sg("+workload.PersonName(5, 3)+", Y)",
		workload.FamilyConfig{Generations: 5, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 7})
	scsgProg, scsgCat := magicFamilyCase(t, workload.SCSGRules(), "scsg("+workload.PersonName(4, 0)+", Y)",
		workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 2, Seed: 3})
	for _, c := range []evalCase{
		fromSrc("mutual", mutualSrc),
		fromSrc("tc", `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, d). e(d, e).
`),
		fromMagic("magic-sg", sgProg, sgCat),
		fromMagic("magic-scsg", scsgProg, scsgCat),
	} {
		serialCat, serialStats, err := c.eval(Options{MaxIterations: 100})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if serialStats.DerivedTuples == 0 {
			t.Fatalf("%s: serial evaluation derived nothing", c.name)
		}
		for _, w := range []int{2, 4, 8} {
			cat, stats, err := c.eval(Options{MaxIterations: 100, Workers: w})
			label := fmt.Sprintf("%s workers=%d", c.name, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameCatalog(t, label, serialCat, cat)
			if stats.Iterations != serialStats.Iterations ||
				stats.DerivedTuples != serialStats.DerivedTuples ||
				stats.Matches != serialStats.Matches {
				t.Fatalf("%s: stats = %+v, serial %+v", label, *stats, *serialStats)
			}
		}
	}
}

func TestParallelTraceDeltasMatch(t *testing.T) {
	serial, serialStats, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Tracer: obsv.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	cat, stats, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Tracer: obsv.NewTracer(0), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameCatalog(t, "trace workers=4", serial, cat)
	if fmt.Sprint(stats.Deltas) != fmt.Sprint(serialStats.Deltas) {
		t.Fatalf("delta traces differ:\n%v\nvs\n%v", stats.Deltas, serialStats.Deltas)
	}
}

func TestParallelBudgetError(t *testing.T) {
	src := `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, d). e(d, e). e(e, a).
`
	for _, w := range []int{1, 2, 8} {
		_, _, err := evalWorkers(t, src, Options{MaxTuples: 3, Workers: w})
		if !errors.Is(err, everr.ErrBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrBudget", w, err)
		}
	}
}

func TestParallelCancellation(t *testing.T) {
	// Cancel mid-evaluation via the fault-injection hook at the round
	// boundary: every worker count must surface ErrCanceled.
	for _, w := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
			cancel() // cancel *during* evaluation, then let the round run
			return nil
		})
		_, _, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Ctx: ctx, Workers: w})
		restore()
		cancel()
		if !errors.Is(err, everr.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", w, err)
		}
	}
}

func TestParallelFaultInjection(t *testing.T) {
	// An injected round error must surface identically for every worker
	// count, with no partial merge of that round.
	for _, w := range []int{1, 2, 8} {
		calls := 0
		restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
			calls++
			if calls >= 2 {
				return errors.New("injected round fault")
			}
			return nil
		})
		_, stats, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Workers: w})
		restore()
		if err == nil || err.Error() != "injected round fault" {
			t.Fatalf("workers=%d: err = %v, want injected round fault", w, err)
		}
		if stats.Iterations != 1 {
			t.Fatalf("workers=%d: iterations = %d, want 1", w, stats.Iterations)
		}
	}
}

func TestParallelPanicContained(t *testing.T) {
	// A panic inside a worker goroutine (a user-registered builtin is
	// the realistic source) must come back as a typed ErrPanic error
	// from the engine, not crash the process — a worker goroutine is
	// beyond the reach of the public API's recover.
	if err := builtin.Register("panicb", 1, []string{"b"}, func(s term.Subst, args []term.Term) ([]term.Subst, error) {
		panic("panicb: deliberate test panic")
	}); err != nil {
		t.Fatal(err)
	}
	src := `
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
p(X, Y) :- p(X, Z), e(Z, Y), panicb(X).
e(a, b). e(b, c). e(c, d).
`
	for _, w := range []int{2, 8} {
		_, _, err := evalWorkers(t, src, Options{MaxIterations: 100, Workers: w})
		if !errors.Is(err, everr.ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPanic", w, err)
		}
		var ee *everr.EvalError
		if !errors.As(err, &ee) || ee.PanicVal == nil {
			t.Fatalf("workers=%d: err = %#v, want *EvalError with PanicVal", w, err)
		}
	}
}

// TestLitStatsParallelMatchesSerial locks in the observed-statistics
// determinism claim: per-rule firing, derivation, and per-literal
// in/out counts must be identical for Workers 1 and 8.
func TestLitStatsParallelMatchesSerial(t *testing.T) {
	_, serialStats, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Tracer: obsv.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serialStats.Rules) == 0 {
		t.Fatal("tracing produced no rule profiles")
	}
	for _, rp := range serialStats.Rules {
		if rp.Fires > 0 && rp.Derived > rp.Fires {
			t.Fatalf("rule %q derived %d > fires %d", rp.Rule, rp.Derived, rp.Fires)
		}
		for _, lp := range rp.Lits {
			if lp.In < 0 || lp.Out < 0 {
				t.Fatalf("rule %q literal %q has negative counts: %+v", rp.Rule, lp.Lit, lp)
			}
		}
	}
	_, parStats, err := evalWorkers(t, mutualSrc, Options{MaxIterations: 100, Tracer: obsv.NewTracer(0), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(parStats.Rules) != fmt.Sprint(serialStats.Rules) {
		t.Fatalf("rule profiles differ under workers=8:\n%v\nvs serial\n%v", parStats.Rules, serialStats.Rules)
	}
}
