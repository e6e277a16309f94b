package chainsplit

// Failed-attempt isolation: when a query is re-run — by the retry
// layer or by the Auto-strategy fallback — the per-round delta
// profiles and trace events of the failed attempt must not leak into
// (or alias) the final result's metrics. Each attempt gets a fresh
// trace sink and fresh engine stats; the final result carries exactly
// what its own (successful) attempt produced.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/faultinject"
	"chainsplit/internal/obsv"
)

// traceShape summarizes the attempt-scoped parts of a result's metrics
// for clean-run vs. retried-run comparison.
type traceShape struct {
	deltas      int
	queryBegins int
	rounds      int
	fallbacks   int
}

func shapeOf(res *Result) traceShape {
	var s traceShape
	s.deltas = len(res.Metrics.Deltas)
	for _, ev := range res.Metrics.TraceEvents {
		switch {
		case ev.Phase == obsv.PhaseQuery && ev.Kind == obsv.KindBegin:
			s.queryBegins++
		case ev.Phase == obsv.PhaseRound:
			s.rounds++
		case ev.Phase == obsv.PhaseFallback:
			s.fallbacks++
		}
	}
	return s
}

// openWorkers opens a database that admits workers query evaluations
// at once. A retried or fallen-back query must re-run inside its own
// admission slot, so one slot must be enough.
func openWorkers(t *testing.T, workers int) *DB {
	t.Helper()
	db, err := OpenWith(Config{MaxConcurrent: workers})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRetriedQueryMetricsMatchCleanRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := openWorkers(t, workers)
			mustExec(t, db, finiteTCSrc)
			opts := []Option{WithStrategy(StrategySeminaive), WithTrace()}

			clean, err := db.Query("?- tc(n0, Y).", opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := shapeOf(clean)
			if want.deltas == 0 || want.rounds == 0 {
				t.Fatalf("clean traced run has no deltas/round events: %+v", want)
			}

			// First attempt dies mid-evaluation — after at least one
			// round has already recorded deltas and trace events — then
			// the site heals and the retry succeeds.
			var calls atomic.Int64
			restore := faultinject.Set(faultinject.SiteSeminaiveIterate, func() error {
				if calls.Add(1) == 2 {
					panic("leak test: injected mid-evaluation panic")
				}
				return nil
			})
			defer restore()
			res, err := db.Query("?- tc(n0, Y).",
				append(opts, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, Seed: 1}))...)
			if err != nil {
				t.Fatalf("retry did not recover: %v", err)
			}
			if res.Metrics.Retries != 1 {
				t.Fatalf("Retries = %d, want 1", res.Metrics.Retries)
			}
			if len(res.Rows) != len(clean.Rows) {
				t.Fatalf("answers = %d, want %d", len(res.Rows), len(clean.Rows))
			}
			got := shapeOf(res)
			if got != want {
				t.Errorf("retried result's metrics differ from a clean run's:\n got %+v\nwant %+v\n(failed attempt leaked into the final result)", got, want)
			}
		})
	}
}

func TestFallbackRerunMetricsAreFresh(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := openWorkers(t, workers)
			mustExec(t, db, finiteTCSrc)

			// Baseline: what a direct traced semi-naive run produces —
			// the fallback re-run must match it, not accumulate the
			// failed magic attempt's events on top.
			clean, err := db.Query("?- tc(n0, Y).", WithStrategy(StrategySeminaive), WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			want := shapeOf(clean)

			restore := faultinject.Set(faultinject.SiteMagicRewrite, func() error {
				panic("leak test: injected rewrite panic")
			})
			defer restore()
			// Every copy falls back; none may see another's events.
			results := make([]*Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = db.Query("?- tc(n0, Y).", WithTrace())
				}(i)
			}
			wg.Wait()
			for i, res := range results {
				if errs[i] != nil {
					t.Fatalf("fallback did not recover: %v", errs[i])
				}
				if res.Metrics.FallbackFrom == "" {
					t.Fatal("query did not fall back; the leak scenario never ran")
				}
				got := shapeOf(res)
				if got.queryBegins != 1 {
					t.Errorf("final result carries %d query-begin events, want 1 (fresh tracer per attempt)", got.queryBegins)
				}
				if got.fallbacks != 1 {
					t.Errorf("fallback events = %d, want 1", got.fallbacks)
				}
				if got.deltas != want.deltas || got.rounds != want.rounds {
					t.Errorf("fallback run deltas/rounds = %d/%d, want %d/%d (failed attempt leaked)",
						got.deltas, got.rounds, want.deltas, want.rounds)
				}
			}
		})
	}
}
