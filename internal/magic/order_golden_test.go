package magic

// The ordering golden records how the rewrite orders rule bodies: the
// rewritten rules and propagation decisions of each program and goal
// below under every policy, with and without supplementary predicates,
// and the chain and rule schedules of every rule under every adornment
// those goals reach. Regenerate it (and review the diff: a moved entry
// is a changed evaluation order) with
// `go test ./internal/magic -run TestRewriteOrderGolden -update`.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"chainsplit/internal/adorn"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/rewrite.golden")

const rewriteGolden = "testdata/rewrite.golden"

// orderCase is one program and the goals rewritten over it.
type orderCase struct {
	name  string
	src   string
	goals []string
}

func orderCases() []orderCase {
	family := workload.Family(workload.FamilyConfig{Generations: 3, Fanout: 2, Roots: 2, Countries: 2, Seed: 7}).String()
	flights := workload.Flights(workload.FlightsConfig{Cities: 3, OutDegree: 2, Layered: true, Layers: 2, Seed: 7}).String()
	const nl = `
nl(X, Y) :- e(X, Y).
nl(X, Y) :- nl(X, Z), nl(Z, Y).
e(a, b). e(b, c). e(c, d). e(b, e).
`
	const tcNeg = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
blocked(c).
open(X, Y) :- e(X, Y), \+ blocked(Y).
open(X, Y) :- open(X, Z), e(Z, Y), \+ blocked(Y).
unreach(X, Y) :- node(X), node(Y), \+ tc(X, Y).
e(a, b). e(b, c). e(c, d). e(b, e).
node(a). node(b). node(c). node(d). node(e).
`
	return []orderCase{
		{"sg", workload.SGRules() + family, []string{"?- sg(g3_0, Y).", "?- sg(X, g3_0).", "?- sg(g3_0, g3_2)."}},
		{"scsg", workload.SCSGRules() + family, []string{"?- scsg(g3_0, Y).", "?- scsg(X, g3_0).", "?- scsg(g3_0, g3_2)."}},
		{"sort", workload.SortRules(), []string{
			"?- qsort([3, 1, 2], Ys).", "?- qsort(Xs, [1, 2]).",
			"?- isort([3, 1, 2], Ys).", "?- isort(Xs, [1, 2]).",
			"?- append([1], [2], Zs).", "?- append(Xs, Ys, [1, 2]).",
			"?- partition([3, 1, 2], 2, Ls, Bs).", "?- partition(Xs, 2, [1], [3]).",
		}},
		{"travel", workload.TravelRules() + flights, []string{"?- travel(L, c0_0, DT, A, AT, F)."}},
		{"nl", nl, []string{"?- nl(a, Y).", "?- nl(X, d)."}},
		{"tc-neg", tcNeg, []string{"?- open(a, Y).", "?- unreach(a, Y)."}},
	}
}

// renderOrders writes the golden text for every case.
func renderOrders(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range orderCases() {
		res, err := lang.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := program.Rectify(res.Program)
		an := adorn.NewAnalysis(p)
		cat := catalogOf(p)
		reached := map[string]bool{}
		for _, gs := range c.goals {
			q, err := lang.ParseQuery(gs)
			if err != nil {
				t.Fatalf("%s: %v", gs, err)
			}
			goal := q.Goals[0]
			for _, pol := range []Policy{PolicyCost, PolicyFollow, PolicySplit} {
				for _, sup := range []bool{true, false} {
					fmt.Fprintf(&b, "== %s %s policy=%s supplementary=%v\n", c.name, gs, pol, sup)
					rw, err := Rewrite(p, goal, withModel(Config{Policy: pol, Supplementary: sup}, cat))
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n\n", err)
						continue
					}
					for _, r := range rw.Program.Rules {
						fmt.Fprintf(&b, "%s\n", r)
					}
					for _, f := range rw.Program.Facts {
						fmt.Fprintf(&b, "%s.\n", f)
					}
					for _, d := range rw.Decisions {
						fmt.Fprintf(&b, "decision: %s | %s | %.4g | %s | %s\n", d.Rule, d.Literal, d.Expansion, d.Choice, d.Why)
					}
					for _, pa := range rw.AdornedPreds {
						reached[pa] = true
					}
					b.WriteString("\n")
				}
			}
		}
		pas := make([]string, 0, len(reached))
		for pa := range reached {
			pas = append(pas, pa)
		}
		sort.Strings(pas)
		for _, pa := range pas {
			at := strings.LastIndexByte(pa, '@')
			pred, ad := pa[:at], pa[at+1:]
			for ri, r := range p.RulesFor(fmt.Sprintf("%s/%d", pred, len(ad))) {
				fmt.Fprintf(&b, "-- %s %s rule %d: %s\n", c.name, pa, ri, r)
				fmt.Fprintf(&b, "chain: %s\n", scheduleText(an.ScheduleChain(r, ad)))
				fmt.Fprintf(&b, "rule:  %s\n", scheduleText(an.ScheduleRule(r, ad)))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func scheduleText(s adorn.Schedule) string {
	return fmt.Sprintf("order=%v delayed=%v recad=%q ok=%v", s.Order, s.Delayed, s.RecAd, s.OK)
}

// TestRewriteOrderGolden pins the body orders the rewrite and the
// schedules choose.
func TestRewriteOrderGolden(t *testing.T) {
	got := renderOrders(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rewriteGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rewriteGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("rewrite orders differ from %s; review with -update and git diff", rewriteGolden)
	}
}
