package magic

import (
	"strings"
	"testing"

	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/relation"
	"chainsplit/internal/seminaive"
	"chainsplit/internal/term"
)

// evalMagic rewrites and evaluates, returning the answer relation.
func evalMagic(t *testing.T, src, goalSrc string, cfg Config) (*relation.Relation, *seminaive.Stats, *Rewritten) {
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

	// Load EDB facts into the catalog first (the rewritten program
	// contains only rules plus the magic seed).
	cat := catalogOf(p)
	rw, err := Rewrite(p, goal, withModel(cfg, cat))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := seminaive.Eval(rw.Program, cat, seminaive.Options{})
	if err != nil {
		t.Fatalf("seminaive: %v\nprogram:\n%s", err, rw.Program)
	}
	return Answers(cat, rw, goal), stats, rw
}

// catalogOf loads p's facts into a fresh catalog: the one a test both
// rewrites against (through the model) and evaluates against.
func catalogOf(p *program.Program) *relation.Catalog {
	cat := relation.NewCatalog()
	for _, f := range p.Facts {
		cat.Ensure(f.Pred, f.Arity()).Insert(relation.Tuple(f.Args))
	}
	return cat
}

// withModel gives cfg a model over cat unless it already has one.
func withModel(cfg Config, cat *relation.Catalog) Config {
	if cfg.Model == nil {
		cfg.Model = &cost.Model{Cat: cat}
	}
	return cfg
}

const ancSrc = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c). par(c, d). par(x, y).
`

func TestMagicAncestorFocuses(t *testing.T) {
	ans, _, rw := evalMagic(t, ancSrc, "?- anc(a, Y).", Config{Policy: PolicyFollow})
	if rw.GoalAd != "bf" {
		t.Errorf("GoalAd = %q", rw.GoalAd)
	}
	// Answers: b, c, d (not y — magic focuses the computation).
	if ans.Len() != 3 {
		t.Fatalf("answers = %v", ans)
	}
	for _, w := range []string{"b", "c", "d"} {
		if !ans.Contains(relation.Tuple{term.NewSym("a"), term.NewSym(w)}) {
			t.Errorf("missing anc(a, %s)", w)
		}
	}
}

func TestMagicSetContents(t *testing.T) {
	res, _ := lang.Parse(ancSrc)
	p := program.Rectify(res.Program)
	goal, _ := lang.ParseQuery("?- anc(a, Y).")
	cat := catalogOf(p)
	rw, err := Rewrite(p, goal.Goals[0], withModel(Config{Policy: PolicyFollow}, cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seminaive.Eval(rw.Program, cat, seminaive.Options{}); err != nil {
		t.Fatal(err)
	}
	m := cat.Get(MagicName("anc", "bf"))
	if m == nil {
		t.Fatalf("magic relation missing; program:\n%s", rw.Program)
	}
	// Magic set: a, b, c, d (descendant frontier of a), NOT x.
	if m.Len() != 4 {
		t.Errorf("magic set = %v, want {a,b,c,d}", m)
	}
	if m.Contains(relation.Tuple{term.NewSym("x")}) {
		t.Error("magic set contains irrelevant constant x")
	}
}

func TestMagicBoundBoundGoal(t *testing.T) {
	ans, _, _ := evalMagic(t, ancSrc, "?- anc(a, d).", Config{Policy: PolicyFollow})
	if ans.Len() != 1 {
		t.Errorf("answers = %v", ans)
	}
	ans2, _, _ := evalMagic(t, ancSrc, "?- anc(a, x).", Config{Policy: PolicyFollow})
	if ans2.Len() != 0 {
		t.Errorf("anc(a,x) answers = %v", ans2)
	}
}

func TestMagicFreeGoal(t *testing.T) {
	// All-free goal: no magic constraint; full anc computed.
	ans, _, rw := evalMagic(t, ancSrc, "?- anc(X, Y).", Config{Policy: PolicyFollow})
	if rw.GoalAd != "ff" {
		t.Errorf("GoalAd = %q", rw.GoalAd)
	}
	if ans.Len() != 7 {
		t.Errorf("answers = %d, want 7 (6 in chain + x-y)", ans.Len())
	}
}

const scsgSrc = `
scsg(X, Y) :- parent(X, X1), parent(Y, Y1), same_country(X1, Y1), scsg(X1, Y1).
scsg(X, Y) :- sibling(X, Y).
`

// scsgFacts builds two family chains: ann's line and bob's line, in the
// same country, with sibling great-grandparents; plus unrelated people.
func scsgFacts() string {
	return `
parent(ann, ap1). parent(ap1, ap2). parent(ap2, ap3).
parent(bob, bp1). parent(bp1, bp2). parent(bp2, bp3).
sibling(ap3, bp3).
same_country(ap1, bp1). same_country(ap2, bp2). same_country(ap3, bp3).
same_country(ap1, ap1). same_country(bp1, bp1).
parent(u1, u2). parent(u2, u3).
`
}

func TestSCSGBothPoliciesAgree(t *testing.T) {
	goal := "?- scsg(ann, Y)."
	ansF, _, _ := evalMagic(t, scsgSrc+scsgFacts(), goal, Config{Policy: PolicyFollow})
	ansS, _, _ := evalMagic(t, scsgSrc+scsgFacts(), goal, Config{Policy: PolicySplit})
	if ansF.Len() == 0 {
		t.Fatal("no answers under follow policy")
	}
	if ansF.Len() != ansS.Len() {
		t.Fatalf("policies disagree: follow=%v split=%v", ansF.Sorted(), ansS.Sorted())
	}
	ansF.Each(func(tup relation.Tuple) bool {
		if !ansS.Contains(tup) {
			t.Errorf("split missing %v", tup)
		}
		return true
	})
	// ann's same-country same-generation relative is bob.
	if !ansF.Contains(relation.Tuple{term.NewSym("ann"), term.NewSym("bob")}) {
		t.Errorf("scsg(ann, bob) missing: %v", ansF.Sorted())
	}
}

func TestSCSGSplitAvoidsCrossProductMagic(t *testing.T) {
	// Under split policy the recursive call keeps adornment bf and the
	// magic set holds ancestors of ann only; under follow it becomes
	// bb over (X1, Y1) pairs.
	res, _ := lang.Parse(scsgSrc + scsgFacts())
	p := program.Rectify(res.Program)
	goal, _ := lang.ParseQuery("?- scsg(ann, Y).")

	cat := catalogOf(p)
	rwF, err := Rewrite(p, goal.Goals[0], withModel(Config{Policy: PolicyFollow}, cat))
	if err != nil {
		t.Fatal(err)
	}
	rwS, err := Rewrite(p, goal.Goals[0], withModel(Config{Policy: PolicySplit}, cat))
	if err != nil {
		t.Fatal(err)
	}
	joinF := strings.Join(rwF.AdornedPreds, " ")
	joinS := strings.Join(rwS.AdornedPreds, " ")
	if !strings.Contains(joinF, "scsg@bb") {
		t.Errorf("follow policy should reach scsg@bb: %v", rwF.AdornedPreds)
	}
	if strings.Contains(joinS, "scsg@bb") {
		t.Errorf("split policy should stay at scsg@bf: %v", rwS.AdornedPreds)
	}
}

func TestCostPolicyPicksSplitOnExplosiveConnection(t *testing.T) {
	// Dense same_country (one country): cost policy must refuse to
	// propagate through it.
	src := scsgSrc
	var facts strings.Builder
	people := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	for i, a := range people {
		if i+1 < len(people) {
			facts.WriteString("parent(" + a + ", " + people[i+1] + ").\n")
		}
		for _, b := range people {
			facts.WriteString("same_country(" + a + ", " + b + ").\n")
		}
	}
	facts.WriteString("sibling(p7, p7).\n")
	_, _, rw := evalMagic(t, src+facts.String(), "?- scsg(p0, Y).", Config{Policy: PolicyCost})
	foundSplit := false
	for _, d := range rw.Decisions {
		if strings.HasPrefix(d.Literal, "same_country") && d.Choice == cost.Split {
			foundSplit = true
		}
	}
	if !foundSplit {
		t.Errorf("cost policy did not split same_country: %+v", rw.Decisions)
	}
}

func TestRewriteNonIDBGoal(t *testing.T) {
	res, _ := lang.Parse(ancSrc)
	p := program.Rectify(res.Program)
	goal := program.NewAtom("par", term.NewSym("a"), term.NewVar("Y"))
	if _, err := Rewrite(p, goal, Config{Policy: PolicyFollow}); err == nil {
		t.Error("expected error for EDB goal")
	}
}

// Every policy needs the model: its catalog says which IDB predicates
// have stored tuples, even where its statistics decide nothing.
func TestRewriteCostRequiresModel(t *testing.T) {
	res, _ := lang.Parse(ancSrc)
	p := program.Rectify(res.Program)
	goal, _ := lang.ParseQuery("?- anc(a, Y).")
	for _, pol := range []Policy{PolicyCost, PolicyFollow, PolicySplit} {
		_, err := Rewrite(p, goal.Goals[0], Config{Policy: pol})
		if err == nil || !strings.Contains(err.Error(), "requires a cost model") {
			t.Errorf("%v without a model: err = %v, want the missing-model error", pol, err)
		}
	}
}

func TestMagicWithBuiltins(t *testing.T) {
	ans, _, _ := evalMagic(t, `
steps(X, Y) :- edge(X, Y).
steps(X, Y) :- edge(X, Z), steps(Z, W), plus(W, 1, Y).
edge(a, 1). edge(b, 1).
`, "?- steps(a, Y).", Config{Policy: PolicyFollow})
	// steps(a,1); steps(a,Y) :- edge(a,1), steps(1,W)… no edges from 1.
	if ans.Len() != 1 || !ans.Contains(relation.Tuple{term.NewSym("a"), term.NewInt(1)}) {
		t.Errorf("answers = %v", ans.Sorted())
	}
}

func TestNamesRoundTrip(t *testing.T) {
	if AdornedName("p", "bf") != "p@bf" || MagicName("p", "bf") != "m$p@bf" {
		t.Error("naming scheme changed unexpectedly")
	}
	for _, pol := range []Policy{PolicyCost, PolicyFollow, PolicySplit} {
		if pol.String() == "unknown" {
			t.Errorf("policy %d unnamed", pol)
		}
	}
}
