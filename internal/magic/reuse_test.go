package magic

import (
	"fmt"
	"reflect"
	"testing"

	"chainsplit/internal/cost"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// reuseSrc's two rules for p each make one decision. Ten sources with
// eleven a-edges make a(X, Y) a follow (expansion 1.1), which raises
// the eval-portion expansion of its rule; thirteen b-edges make
// b(X, Y) a quantitative split (1.3), whose costs read the
// eval-portion expansion of its own rule only.
func reuseSrc() string {
	src := "p(X, Y) :- a(X, Y).\np(X, Y) :- b(X, Y).\n"
	for i := 0; i < 10; i++ {
		src += fmt.Sprintf("a(s%d, t%d). b(s%d, t%d).\n", i, i, i, i)
	}
	src += "a(s0, u). b(s0, u). b(s1, u). b(s2, u).\n"
	return src
}

// TestReuseRepeatsRewrite reuses a rewrite for another goal constant
// over the same statistics: the rules are shared, the seed is the new
// goal's, and the decisions are the ones a fresh Rewrite makes.
func TestReuseRepeatsRewrite(t *testing.T) {
	res, err := lang.Parse(reuseSrc())
	if err != nil {
		t.Fatal(err)
	}
	p := program.Rectify(res.Program)
	cfg := Config{Model: &cost.Model{Cat: catalogOf(p)}, Supplementary: true}
	first := program.NewAtom("p", term.NewSym("s0"), term.NewVar("Y"))
	rw, err := Rewrite(p, first, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Decisions) != 2 || rw.Decisions[0].Choice != cost.Follow || rw.Decisions[1].Choice != cost.Split {
		t.Fatalf("decisions %v, want a follow then a quantitative split", rw.Decisions)
	}
	second := program.NewAtom("p", term.NewSym("s5"), term.NewVar("Y"))
	reused, ok, err := rw.Reuse(second, cfg)
	if err != nil || !ok {
		t.Fatalf("Reuse: ok %v, err %v", ok, err)
	}
	fresh, err := Rewrite(p, second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused.Decisions, fresh.Decisions) {
		t.Errorf("reused decisions %v, a fresh rewrite makes %v", reused.Decisions, fresh.Decisions)
	}
	if reused.Program.String() != fresh.Program.String() {
		t.Errorf("reused program\n%s\na fresh rewrite gives\n%s", reused.Program, fresh.Program)
	}
	// Another adornment, or another policy, is another rewrite.
	if _, ok, _ := rw.Reuse(program.NewAtom("p", term.NewVar("X"), term.NewSym("u")), cfg); ok {
		t.Error("a rewrite for p^bf was reused for p^fb")
	}
	follow := cfg
	follow.Policy = PolicyFollow
	if _, ok, _ := rw.Reuse(second, follow); ok {
		t.Error("a cost-based rewrite was reused under the follow-all policy")
	}
}
