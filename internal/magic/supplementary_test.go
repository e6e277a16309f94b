package magic

import (
	"strings"
	"testing"

	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
)

// evalWith rewrites with the given config and evaluates, returning the
// answers plus the stats and catalog.
func evalWith(t *testing.T, src, goalSrc string, cfg Config) (*relation.Relation, *seminaive.Stats, *relation.Catalog) {
	t.Helper()
	res, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	goalQ, err := lang.ParseQuery(goalSrc)
	if err != nil {
		t.Fatal(err)
	}
	goal := goalQ.Goals[0]
	cat := catalogOf(p)
	rw, err := Rewrite(p, goal, withModel(cfg, cat))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := seminaive.Eval(rw.Program, cat, seminaive.Options{})
	if err != nil {
		t.Fatalf("seminaive: %v\nprogram:\n%s", err, rw.Program)
	}
	return Answers(cat, rw, goal), stats, cat
}

// nlSrc is a nonlinear recursion: two IDB literals per body, so the
// supplementary factoring has real sharing to exploit.
const nlSrc = `
nl(X, Y) :- e(X, Y).
nl(X, Y) :- nl(X, Z), nl(Z, Y).
e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).
e(n5, n6). e(n6, n7). e(n7, n8).
`

func TestSupplementarySameAnswers(t *testing.T) {
	for _, src := range []string{nlSrc, ancSrc, scsgSrc + scsgFacts()} {
		goal := "?- nl(n0, Y)."
		if strings.Contains(src, "anc") {
			goal = "?- anc(a, Y)."
		} else if strings.Contains(src, "scsg") {
			goal = "?- scsg(ann, Y)."
		}
		flat, _, _ := evalWith(t, src, goal, Config{Policy: PolicyFollow})
		sup, _, _ := evalWith(t, src, goal, Config{Policy: PolicyFollow, Supplementary: true})
		if flat.Len() != sup.Len() {
			t.Fatalf("%s: flat %d answers, sup %d", goal, flat.Len(), sup.Len())
		}
		for _, tup := range flat.Sorted() {
			if !sup.Contains(tup) {
				t.Errorf("%s: sup missing %v", goal, tup)
			}
		}
	}
}

func TestSupplementaryCreatesSupRelations(t *testing.T) {
	_, _, cat := evalWith(t, nlSrc, "?- nl(n0, Y).", Config{Policy: PolicyFollow, Supplementary: true})
	found := false
	for _, name := range cat.Names() {
		if strings.HasPrefix(name, "sup$") {
			found = true
		}
	}
	if !found {
		t.Errorf("no supplementary relations materialized: %v", cat.Names())
	}
}

func TestSupplementaryReducesJoinWork(t *testing.T) {
	// The nonlinear rule evaluates its nl(X,Z) prefix once per magic
	// rule plus once in the answer rule without supplementaries; with
	// them it is shared. Matches (join work) must not increase.
	_, flatStats, _ := evalWith(t, nlSrc, "?- nl(n0, Y).", Config{Policy: PolicyFollow})
	_, supStats, _ := evalWith(t, nlSrc, "?- nl(n0, Y).", Config{Policy: PolicyFollow, Supplementary: true})
	if supStats.Matches > flatStats.Matches {
		t.Errorf("supplementary increased join work: %d > %d", supStats.Matches, flatStats.Matches)
	}
}

func TestSupplementaryWithSplitPolicy(t *testing.T) {
	flat, _, _ := evalWith(t, scsgSrc+scsgFacts(), "?- scsg(ann, Y).", Config{Policy: PolicySplit})
	sup, _, _ := evalWith(t, scsgSrc+scsgFacts(), "?- scsg(ann, Y).", Config{Policy: PolicySplit, Supplementary: true})
	if flat.Len() != sup.Len() {
		t.Fatalf("split policy: flat %d vs sup %d answers", flat.Len(), sup.Len())
	}
}

func TestSupNameFormat(t *testing.T) {
	if SupName("p", "bf", 1, 2) != "sup$p@bf$1_2" {
		t.Errorf("SupName = %q", SupName("p", "bf", 1, 2))
	}
}
