package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated sections from this run")

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "F1", "F2", "F3", "A1", "A2", "A3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, all[i].ID, id)
		}
	}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok || e.Title == "" || e.PaperRef == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete: %+v", id, e)
		}
	}
	if _, ok := Lookup("T99"); ok {
		t.Error("Lookup(T99) succeeded")
	}
}

// TestAllExperimentsRunQuick runs every experiment and fails on each
// clause of a paper claim its rows break; EXPERIMENTS.md must then be
// the rendering of these reports. The sizes keep the whole suite a few
// seconds of the tier-1 run.
func TestAllExperimentsRunQuick(t *testing.T) {
	reports := make(map[string]*Report)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(Config{})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			for _, f := range r.Failed {
				t.Errorf("%s claim broken: %s", e.ID, f)
			}
			if r.Measured == "" {
				t.Errorf("%s reports no measured summary", e.ID)
			}
			reports[e.ID] = r
		})
	}
	if t.Failed() || len(reports) != len(All()) {
		return // a failure, or a -run filter: no complete rendering to compare
	}
	checkExperimentsMD(t, reports)
}

// checkExperimentsMD renders the summary table and the full tables of
// the experiments and compares them with the generated sections of
// EXPERIMENTS.md, rewriting those sections under -update.
func checkExperimentsMD(t *testing.T, reports map[string]*Report) {
	var summary, tables strings.Builder
	summary.WriteString("| Exp | Paper claim | Measured | Verdict |\n|-----|-------------|----------|---------|\n")
	tables.WriteString("```\n")
	for _, e := range All() {
		r := reports[e.ID]
		fmt.Fprintf(&summary, "| %s | %s | %s | %s |\n", e.ID, e.Claim, r.Measured, e.Verdict(r))
		e.Print(&tables, r)
	}
	tables.WriteString("```\n")

	const path = "../../EXPERIMENTS.md"
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(old)
	for _, s := range []struct{ name, body string }{{"summary", summary.String()}, {"tables", tables.String()}} {
		begin, end := "<!-- begin "+s.name+" -->\n", "<!-- end "+s.name+" -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Fatalf("EXPERIMENTS.md lacks the %q … %q markers", begin, end)
		}
		doc = doc[:i+len(begin)] + s.body + doc[j:]
	}
	switch {
	case doc == string(old):
	case *update:
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("EXPERIMENTS.md differs from this run's reports; after a deliberate change run\n" +
			"\tgo test ./internal/experiments -run TestAllExperimentsRunQuick -update")
	}
}

// TestT2SplitBeatsFollowOnDenseCountries reads T2's headline rows — one
// country, the densest same_country — from the table itself rather than
// through the verdict code: split's magic set is smaller than follow's
// and the cost policy chose split.
func TestT2SplitBeatsFollowOnDenseCountries(t *testing.T) {
	r, err := runT2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	magic := map[string]int{}
	chose := ""
	for _, row := range r.Tables[0].Rows {
		if row[0] != "1" {
			continue
		}
		var n int
		if _, err := fmt.Sscan(row[3], &n); err != nil {
			t.Fatalf("magic cell %q: %v", row[3], err)
		}
		magic[row[1]] = n
		if row[1] == "magic(cost-split)" {
			chose = row[5]
		}
	}
	if split, follow := magic["magic(split)"], magic["magic(follow)"]; split == 0 || split >= follow {
		t.Errorf("countries=1: split's magic set holds %d tuples, follow's %d", split, follow)
	}
	if chose != "split" {
		t.Errorf("countries=1: the cost policy chose %q, want split", chose)
	}
}
