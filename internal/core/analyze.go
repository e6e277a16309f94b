package core

// EXPLAIN ANALYZE: run the query with the structured trace and observed
// per-literal join statistics enabled, then confront the cost model's
// estimated expansion ratios (the inputs to Algorithm 3.1's split /
// follow decisions) with the ratios the evaluation actually realized.
// A decision whose observed ratio lands in a different threshold regime
// than its estimate is flagged — the calibration report that makes a
// mispriced connection (the paper's scsg cross-product warning) visible
// instead of just slow.

import (
	"fmt"
	"strings"

	"chainsplit/internal/cost"
	"chainsplit/internal/magic"
	"chainsplit/internal/program"
	"chainsplit/internal/seminaive"
)

// DecisionAnalysis annotates one magic propagation decision with the
// observed runtime behavior of its literal.
type DecisionAnalysis struct {
	magic.Decision
	// In / Out aggregate the runtime counts of every occurrence of the
	// literal in the evaluated (rewritten) program: substitutions that
	// reached it and matches it produced. For a split literal the
	// occurrence is its delayed position in the answer rule, where the
	// answer join arrives with both sides bound — a low observed ratio
	// there records what the split bought, not that the estimate was
	// wrong about the unsplit position.
	In, Out int64
	// Observed is Out/In, the realized expansion ratio; meaningful
	// only when HasObserved.
	Observed    float64
	HasObserved bool
	// EstRegime / ObsRegime place estimate and observation against the
	// thresholds: "split" (above SplitAbove), "follow" (below
	// FollowBelow) or "quantitative" (between).
	EstRegime, ObsRegime string
	// Flagged marks a calibration miss: the observed ratio crossed a
	// threshold the estimate was on the other side of.
	Flagged bool
}

// AnalyzeReport is the result of ExplainAnalyze: the executed query
// plus the estimated-vs-observed calibration of every chain-split
// decision.
type AnalyzeReport struct {
	// Result is the executed query (answers, plan, metrics — including
	// Metrics.Rules, Metrics.Deltas and the structured trace).
	Result *Result
	// Thresholds are the effective Algorithm 3.1 thresholds the
	// regimes are judged against.
	Thresholds cost.Thresholds
	// Decisions annotates each magic propagation decision.
	Decisions []DecisionAnalysis
	// Flagged counts the flagged Decisions.
	Flagged int
}

// ExplainAnalyze runs the query with tracing, per-literal statistics
// and per-round delta profiles enabled and returns the calibration
// report alongside the (complete) result.
func (db *DB) ExplainAnalyze(goals []program.Atom, opts Options) (*AnalyzeReport, error) {
	return db.current().ExplainAnalyze(goals, opts)
}

// ExplainAnalyze evaluates against this generation; see DB.ExplainAnalyze.
func (g *generation) ExplainAnalyze(goals []program.Atom, opts Options) (*AnalyzeReport, error) {
	opts = g.applyPragmas(opts)
	opts.Trace = true
	res, err := g.Query(goals, opts)
	if err != nil {
		return nil, err
	}
	th := opts.Thresholds
	if th == (cost.Thresholds{}) {
		th = cost.DefaultThresholds
	}
	rep := &AnalyzeReport{Result: res, Thresholds: th}
	obs := observedIndex(res.Metrics.Rules)

	if res.Plan != nil {
		for _, d := range res.Plan.Decisions {
			da := DecisionAnalysis{Decision: d, EstRegime: regimeOf(d.Expansion, th)}
			if o, ok := obs[d.Literal]; ok && o.in > 0 {
				da.In, da.Out = o.in, o.out
				da.Observed = float64(o.out) / float64(o.in)
				da.HasObserved = true
				da.ObsRegime = regimeOf(da.Observed, th)
				// Policy decisions (follow-all / split-all ablations)
				// record no estimate; there is nothing to calibrate.
				if !strings.HasPrefix(d.Why, "policy") && da.ObsRegime != da.EstRegime {
					da.Flagged = true
					rep.Flagged++
				}
			}
			rep.Decisions = append(rep.Decisions, da)
		}
	}
	return rep, nil
}

// litObserved aggregates one literal's runtime counts.
type litObserved struct{ in, out int64 }

// observedIndex sums each body literal's In/Out counts over every rule
// of the evaluated program it occurs in, keyed by the literal's
// rendered form. Rectification keeps variable names stable between the
// source rules (where decisions are phrased) and the rewritten rules
// (where the literals actually ran), so exact string match is the join
// key.
func observedIndex(rules []seminaive.RuleProfile) map[string]litObserved {
	idx := make(map[string]litObserved)
	for _, rp := range rules {
		for _, lp := range rp.Lits {
			o := idx[lp.Lit]
			o.in += lp.In
			o.out += lp.Out
			idx[lp.Lit] = o
		}
	}
	return idx
}

// regimeOf places an expansion ratio against the thresholds.
func regimeOf(e float64, th cost.Thresholds) string {
	switch {
	case e > th.SplitAbove:
		return "split"
	case e < th.FollowBelow:
		return "follow"
	default:
		return "quantitative"
	}
}

// String renders the calibration report: the plan, each decision with
// estimated vs. observed expansion, the observed rule profiles and the
// per-round delta sizes.
func (r *AnalyzeReport) String() string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	if r.Result != nil && r.Result.Plan != nil {
		b.WriteString(r.Result.Plan.String())
	}
	fmt.Fprintf(&b, "thresholds: split above %.2f, follow below %.2f\n",
		r.Thresholds.SplitAbove, r.Thresholds.FollowBelow)

	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "decision:  %s → %s\n", d.Literal, d.Choice)
		fmt.Fprintf(&b, "           estimated %.2f (%s)", d.Expansion, d.EstRegime)
		if d.HasObserved {
			fmt.Fprintf(&b, " | observed %.2f = %d out / %d in (%s)", d.Observed, d.Out, d.In, d.ObsRegime)
		} else {
			b.WriteString(" | not observed (literal never evaluated)")
		}
		b.WriteByte('\n')
		if d.Flagged {
			fmt.Fprintf(&b, "           ⚠ calibration: estimate in %s regime, observation in %s regime", d.EstRegime, d.ObsRegime)
			if d.Choice == cost.Split {
				b.WriteString(" (observed at its delayed answer-join position)")
			}
			b.WriteByte('\n')
		}
	}

	if r.Result != nil {
		for _, rp := range r.Result.Metrics.Rules {
			fmt.Fprintf(&b, "rule:      %s  fires=%d derived=%d\n", rp.Rule, rp.Fires, rp.Derived)
			for _, lp := range rp.Lits {
				fmt.Fprintf(&b, "           %-40s in=%-8d out=%-8d", lp.Lit, lp.In, lp.Out)
				if lp.In > 0 {
					fmt.Fprintf(&b, " ratio=%.2f", float64(lp.Out)/float64(lp.In))
				}
				b.WriteByte('\n')
			}
		}
		for _, it := range r.Result.Metrics.Deltas {
			fmt.Fprintf(&b, "round:     %s iteration %d: %v\n", it.SCC, it.Iteration, it.DeltaSizes)
		}
	}
	fmt.Fprintf(&b, "flagged:   %d calibration miss(es)\n", r.Flagged)
	return b.String()
}
