package seminaive

// Golden behaviour of the rule executor. Every program below is
// evaluated under Workers 1 and 2 with literal statistics and delta
// tracing on; the rendered outcome — every relation in insertion order,
// Stats, the per-round deltas, the per-literal profiles and the error
// text — must match testdata/executor.golden exactly, and the two
// worker counts must agree with each other. Regenerate the golden file
// with `go test ./internal/seminaive -run TestExecutorGolden -update`
// only when a change to the evaluation order is intended.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/builtin"
	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/magic"
	"chainsplit/internal/obsv"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/executor.golden")

// goldenCase is one program of the executor table. src is parsed and
// (unless raw) rectified; goal, when set, magic-rewrites the program
// for that query first, with facts loaded into the catalog the rewrite
// and the evaluation read.
type goldenCase struct {
	name    string
	src     string
	raw     bool // evaluate the parsed program as written, unrectified
	family  *workload.FamilyConfig
	goal    string
	policy  magic.Policy
	opts    Options
	wantErr error
}

var goldenCases = []goldenCase{
	{name: "tc-chain", src: `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(a, b). e(b, c). e(c, d). e(d, e).
`},
	{name: "tc-cyclic", src: `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
e(a, b). e(b, c). e(c, a). e(c, d).
`},
	{name: "tc-nonlinear", src: `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(4, 5).
`},
	{name: "magic-sg", family: &workload.FamilyConfig{Generations: 5, Fanout: 2, Roots: 1, Countries: 1 << 20, Seed: 7},
		src: workload.SGRules(), goal: "sg(g5_3, Y)", policy: magic.PolicyCost},
	{name: "magic-scsg-cost", family: &workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 2, Seed: 3},
		src: workload.SCSGRules(), goal: "scsg(g4_0, Y)", policy: magic.PolicyCost},
	{name: "magic-scsg-follow", family: &workload.FamilyConfig{Generations: 4, Fanout: 2, Roots: 1, Countries: 2, Seed: 3},
		src: workload.SCSGRules(), goal: "scsg(g4_0, Y)", policy: magic.PolicyFollow},
	{name: "mutual", src: mutualSrc, opts: Options{MaxIterations: 100}},
	{name: "mutual-even-odd", src: `
even(z).
even(X) :- s(X, Y), odd(Y).
odd(X) :- s(X, Y), even(Y).
s(one, z). s(two, one). s(three, two). s(four, three).
`},
	{name: "negation-stratified", src: `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
node(a). node(b). node(c). node(d).
unreach(X, Y) :- node(X), node(Y), \+ tc(X, Y).
lonely(X) :- node(X), \+ friend(X, X), \+ ghost(X).
friend(b, b).
e(a, b). e(b, c).
`},
	{name: "negation-recursive", src: `
edge(a, b). edge(b, c). edge(b, x). edge(x, c). edge(c, a).
closed(x).
reach(X, Y) :- edge(X, Y), \+ closed(Y).
reach(X, Y) :- edge(X, Z), \+ closed(Z), reach(Z, Y).
`},
	{name: "builtins-bind", src: `
n(1). n(2). n(3). n(4).
sum(X, Y) :- n(X), plus(X, 10, Y).
diff(X, Y, D) :- n(X), n(Y), minus(X, Y, D), D >= 0.
range(X, Y) :- n(X), between(1, X, Y).
wrap(X, W) :- n(X), W = f(X, X).
unwrap(A, B) :- wrap(_, W), W = f(A, B).
counter(0).
counter(N) :- counter(M), M < 5, plus(M, 1, N).
`},
	{name: "builtins-reorder", src: `
big(X) :- X > 2, n(X).
pair(X, Y) :- plus(X, 1, Y), n(X).
n(1). n(3). n(4).
`},
	{name: "negated-builtin", src: `
odd_pair(X, Y) :- n(X), n(Y), \+ X = Y.
small(X) :- n(X), \+ X > 1.
n(1). n(2). n(3).
`},
	{name: "repeated-vars", src: `
e(a, a). e(a, b). e(b, a). e(c, c). e(b, b).
self(X) :- e(X, X).
back(X, Y) :- e(X, Y), e(Y, X).
tri(X) :- e(X, Y), e(Y, Z), e(Z, X).
`},
	{name: "constants", src: `
e(a, b). e(a, c). e(b, c). e(c, 1). e(1, 2).
from_a(Y) :- e(a, Y).
into_c(X) :- e(X, c).
num(Y) :- e(1, Y).
hit(X) :- e(X, Y), e(Y, 1).
`},
	{name: "lists", src: `
lst([1, 2, 3]). lst([7]). lst([]).
head(L, H) :- lst(L), cons(H, T, L).
suffix(L, L) :- lst(L).
suffix(T, L) :- suffix(L1, L), cons(H, T, L1).
len(L, N) :- lst(L), length(L, N).
pre(X, L) :- lst(L), cons(H, T, L), cons(0, L, X).
`},
	{name: "compound-patterns", raw: true, src: `
r(f(1, a)). r(f(2, b)). r(f(3, 3)). r(g(3)). r(f(g(1), a)).
n(1). n(2). n(3).
first(X) :- r(f(X, a)).
both(X, Y) :- r(f(X, Y)).
diag(X) :- r(f(X, X)).
keyed(X) :- n(X), r(f(X, a)).
half(X, Y) :- n(X), r(f(X, Y)).
deep(X) :- r(f(g(X), a)).
box(g(X), Y) :- r(f(X, Y)).
`},
	{name: "err-nonground-head", raw: true, src: `
p(X, Y) :- n(X).
n(1).
`, wantErr: ErrUnsafe},
	{name: "err-nonground-compound-head", raw: true, src: `
p(f(X, Y)) :- n(X).
n(1).
`, wantErr: ErrUnsafe},
	{name: "err-unschedulable", src: `
p(X, Y) :- n(X), plus(Y, Y, Z).
n(1).
`, wantErr: ErrUnsafe},
	{name: "err-unschedulable-cons", src: `
p(L) :- n(X), cons(X, T, L).
n(1).
`, wantErr: ErrUnsafe},
	{name: "err-budget-tuples", src: `
counter(0).
counter(N) :- counter(M), plus(M, 1, N).
`, opts: Options{MaxTuples: 100}, wantErr: ErrBudget},
	{name: "err-budget-iterations", src: `
counter(0).
counter(N) :- counter(M), plus(M, 1, N).
`, opts: Options{MaxIterations: 20}, wantErr: ErrBudget},
	{name: "err-type", src: `
bad(X) :- s(X), X < 3.
s(1). s(hello).
`, wantErr: builtin.ErrType},
}

// goldenRun evaluates c under the given worker count and renders the
// complete observable outcome.
func goldenRun(t *testing.T, c goldenCase, workers int) string {
	t.Helper()
	res, err := lang.Parse(c.src)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	p := res.Program
	cat := relation.NewCatalog()
	if c.family != nil {
		for _, f := range workload.Family(*c.family).Facts {
			cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
		}
	}
	if !c.raw {
		p = program.Rectify(p)
	}
	if c.goal != "" {
		q, err := lang.ParseQuery("?- " + c.goal + ".")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rw, err := magic.Rewrite(p, q.Goals[0], magic.Config{Policy: c.policy, Model: &cost.Model{Cat: cat}, Supplementary: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p = rw.Program
		cat = cat.Snapshot()
	}
	opts := c.opts
	opts.Workers = workers
	opts.Tracer = obsv.NewTracer(0)
	stats, evalErr := Eval(p, cat, opts)
	if c.wantErr != nil && !errors.Is(evalErr, c.wantErr) {
		t.Errorf("%s workers=%d: err = %v, want %v", c.name, workers, evalErr, c.wantErr)
	}
	if c.wantErr == nil && evalErr != nil {
		t.Errorf("%s workers=%d: unexpected error %v", c.name, workers, evalErr)
	}
	return renderOutcome(cat, stats, evalErr)
}

func renderOutcome(cat *relation.Catalog, stats *Stats, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	for _, name := range cat.Names() {
		rel := cat.Get(name)
		fmt.Fprintf(&b, "%s/%d [%d]:", name, rel.Arity(), rel.Len())
		for i := 0; i < rel.Len(); i++ {
			fmt.Fprintf(&b, " %v", rel.At(i))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "iterations=%d derived=%d matches=%d\n", stats.Iterations, stats.DerivedTuples, stats.Matches)
	for _, d := range stats.Deltas {
		preds := make([]string, 0, len(d.DeltaSizes))
		for p := range d.DeltaSizes {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		fmt.Fprintf(&b, "delta %s #%d:", d.SCC, d.Iteration)
		for _, p := range preds {
			fmt.Fprintf(&b, " %s=%d", p, d.DeltaSizes[p])
		}
		b.WriteByte('\n')
	}
	for _, rp := range stats.Rules {
		fmt.Fprintf(&b, "rule %s fires=%d derived=%d\n", rp.Rule, rp.Fires, rp.Derived)
		for _, lp := range rp.Lits {
			fmt.Fprintf(&b, "  %s in=%d out=%d\n", lp.Lit, lp.In, lp.Out)
		}
	}
	return b.String()
}

func TestExecutorGolden(t *testing.T) {
	var all strings.Builder
	for _, c := range goldenCases {
		serial := goldenRun(t, c, 1)
		if par := goldenRun(t, c, 2); par != serial {
			t.Errorf("%s: workers=2 differs from serial:\n%s\nserial:\n%s", c.name, par, serial)
		}
		fmt.Fprintf(&all, "=== %s\n%s", c.name, serial)
	}
	path := filepath.Join("testdata", "executor.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("executor outcome diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
