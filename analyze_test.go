package chainsplit

// EXPLAIN ANALYZE acceptance tests: the calibration report must show
// estimated vs. observed expansion for every split/follow decision and
// flag the scsg same_country connection, whose estimate (dense
// connector, one country → expansion ≈ population) sits in the split
// regime while the observed ratio at its delayed answer-join position
// is ≤ 1 (follow regime).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"chainsplit/internal/workload"
)

func scsgDB(t *testing.T) *DB {
	t.Helper()
	return scsgDBWith(t, Config{})
}

func scsgDBWith(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := OpenWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(workload.SCSGRules()); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(workload.Family(workload.FamilyConfig{
		Generations: 4, Fanout: 2, Roots: 1, Countries: 1, Seed: 7,
	}).String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// workers is how many queries run at once: the database admits that
// many evaluations (Config.MaxConcurrent) and the test runs that many
// copies of the analysis concurrently. Each copy's report must stand
// on its own observations.
func TestExplainAnalyzeSCSGFlagsSameCountry(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := scsgDBWith(t, Config{MaxConcurrent: workers})
			q := fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0))
			ans := make([]*Analysis, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := range ans {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ans[i], errs[i] = db.ExplainAnalyze(q)
				}(i)
			}
			wg.Wait()
			// Answers must match a plain query: analysis is observational.
			plain, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for i, an := range ans {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if len(an.Result.Rows) == 0 {
					t.Fatal("analyzed query returned no answers")
				}
				if len(plain.Rows) != len(an.Result.Rows) {
					t.Fatalf("analyze returned %d answers, plain query %d", len(an.Result.Rows), len(plain.Rows))
				}
				checkSCSGAnalysis(t, an)
			}
		})
	}
}

// checkSCSGAnalysis asserts that a dense-connector scsg analysis flags
// exactly the same_country decision and carries its trace and profiles.
func checkSCSGAnalysis(t *testing.T, an *Analysis) {
	t.Helper()
	if an.Flagged == 0 {
		t.Fatalf("dense same_country not flagged as calibration miss:\n%s", an.Report)
	}
	if !strings.Contains(an.Report, "same_country") {
		t.Fatalf("report does not mention same_country:\n%s", an.Report)
	}
	// Every decision line must carry estimated and observed (or an
	// explicit not-observed marker). Flagged counts the decisions
	// carrying a ⚠ line, each once, and the report holds only
	// the decisions that ran: no separate path walk.
	var decisions, observed, warned int
	var decision string
	for _, line := range strings.Split(an.Report, "\n") {
		if strings.HasPrefix(line, "decision:") {
			decisions++
			decision = line
		}
		if strings.HasPrefix(line, "path:") {
			t.Errorf("report carries a path line: %q", line)
		}
		if strings.Contains(line, "⚠ calibration") {
			warned++
			if !strings.Contains(decision, "same_country") {
				t.Errorf("⚠ line under %q, want the same_country decision", decision)
			}
		}
		if strings.Contains(line, "estimated ") {
			if !strings.Contains(line, "observed") && !strings.Contains(line, "not observed") {
				t.Errorf("decision line lacks observed ratio: %q", line)
			}
			if strings.Contains(line, "| observed") {
				observed++
			}
		}
	}
	if decisions == 0 {
		t.Fatalf("report has no decision lines:\n%s", an.Report)
	}
	if observed == 0 {
		t.Fatalf("no decision carries an observed ratio:\n%s", an.Report)
	}
	if !strings.Contains(an.Report, "⚠ calibration") {
		t.Fatalf("no calibration warning rendered:\n%s", an.Report)
	}
	if an.Flagged != 1 || warned != an.Flagged {
		t.Fatalf("Flagged = %d with %d flagged decision lines, want 1 and 1:\n%s", an.Flagged, warned, an.Report)
	}
	// The structured trace and rule profiles rode along.
	if len(an.Result.Metrics.TraceEvents) == 0 {
		t.Error("analysis carries no trace events")
	}
	if len(an.Result.Metrics.Rules) == 0 {
		t.Error("analysis carries no rule profiles")
	}
}

func TestExplainAnalyzeSelectiveConnectorNotFlaggedAsSplit(t *testing.T) {
	// With many countries the connector is selective: the planner
	// follows it and the observation agrees — the same_country decision
	// itself must not be flagged (other literals may or may not be).
	db := Open()
	if err := db.Exec(workload.SCSGRules()); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(workload.Family(workload.FamilyConfig{
		Generations: 4, Fanout: 2, Roots: 1, Countries: 16, Seed: 7,
	}).String()); err != nil {
		t.Fatal(err)
	}
	an, err := db.ExplainAnalyze(fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.Report, "flagged:") {
		t.Fatalf("report lacks the flagged summary:\n%s", an.Report)
	}
}

func TestWithTracePopulatesTypedEvents(t *testing.T) {
	db := scsgDB(t)
	res, err := db.Query(fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0)), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics.TraceEvents) == 0 {
		t.Fatal("WithTrace produced no typed events")
	}
	var phases []string
	for _, ev := range res.Metrics.TraceEvents {
		phases = append(phases, ev.Phase.String())
	}
	joined := strings.Join(phases, " ")
	for _, want := range []string{"query", "plan", "round"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace lacks a %q phase event; phases: %s", want, joined)
		}
	}
	// Without WithTrace the typed trace stays empty.
	res2, err := db.Query(fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Metrics.TraceEvents) != 0 {
		t.Errorf("untraced query carries %d trace events", len(res2.Metrics.TraceEvents))
	}
}

// TestExplainAnalyzePassesQueryGates checks that ExplainAnalyze sheds
// where Query sheds: a quarantined node serves neither.
func TestExplainAnalyzePassesQueryGates(t *testing.T) {
	db := scsgDB(t)
	defer db.Close()
	q := fmt.Sprintf("?- scsg(%s, Y).", workload.PersonName(4, 0))
	if _, err := db.ExplainAnalyze(q); err != nil {
		t.Fatal(err)
	}
	db.inner.Quarantine()
	if _, err := db.Query(q); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Query on a quarantined node: %v, want ErrQuarantined", err)
	}
	if _, err := db.ExplainAnalyze(q); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ExplainAnalyze on a quarantined node: %v, want ErrQuarantined", err)
	}
}
