// Package experiments implements the reproduction's evaluation suite:
// one experiment per table/figure reconstructed from the paper (see
// DESIGN.md §2 for the mapping). Each experiment builds a workload,
// runs the paper's method against the baseline it argues against, and
// returns a Report: tables of counts, decisions and answers — never
// timings, so a report is identical run to run — and the clauses of the
// paper's claim that the rows break, if any.
//
// The package tests assert every verdict and render EXPERIMENTS.md
// from the same reports, so the published table is a test. Timing is
// the repository benchmark's job (bench/).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"chainsplit/internal/core"
	"chainsplit/internal/lang"
	"chainsplit/internal/program"
)

// Config controls an experiment run.
type Config struct {
	// Ctx, when non-nil, bounds the whole run: experiments abort with
	// a typed error when it ends (benchtab -timeout).
	Ctx context.Context
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the experiment identifier (T1…T9, F1…F3, A1…A3).
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef anchors the experiment in the paper.
	PaperRef string
	// Claim is what the rows must show: the paper's claim as
	// EXPERIMENTS.md states it.
	Claim string
	// Run executes the experiment.
	Run func(cfg Config) (*Report, error)
}

// Report is what one run of an experiment measured.
type Report struct {
	Tables []*Table
	// Measured summarizes the rows in one line, for EXPERIMENTS.md.
	Measured string
	// Failed lists every clause of the claim the rows break; empty
	// means the claim holds.
	Failed []string
}

// Table is a captioned table; one without a header is a caption only.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// table appends a table to the report.
func (r *Report) table(caption string, header ...string) *Table {
	t := &Table{Caption: caption, Header: header}
	r.Tables = append(r.Tables, t)
	return t
}

// add appends one row, formatting each cell with fmt.Sprint.
func (t *Table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// check records a broken clause of the claim when ok is false.
func (r *Report) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
	}
}

// Verdict is the one-word outcome of a report of e.
func (e Experiment) Verdict(r *Report) string {
	switch {
	case len(r.Failed) > 0:
		return "NOT reproduced"
	case strings.HasPrefix(e.ID, "A"):
		return "as designed"
	default:
		return "reproduced"
	}
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in ID order: tables (T*), then figures
// (F*), then ablations (A*).
func All() []Experiment {
	rank := func(id string) int { return strings.IndexByte("TFA", id[0]) }
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if rank(a) != rank(b) {
			return rank(a) < rank(b)
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Print writes the experiment's banner, tables, claim and verdict,
// with every broken clause.
func (e Experiment) Print(out io.Writer, r *Report) {
	fmt.Fprintf(out, "\n== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(out, "   (%s)\n", e.PaperRef)
	for _, t := range r.Tables {
		fmt.Fprintln(out)
		if t.Caption != "" {
			fmt.Fprintln(out, t.Caption)
		}
		if len(t.Header) == 0 {
			continue
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		dashes := make([]string, len(t.Header))
		for i, h := range t.Header {
			dashes[i] = strings.Repeat("-", len([]rune(h)))
		}
		for _, row := range append([][]string{t.Header, dashes}, t.Rows...) {
			fmt.Fprintln(w, strings.Join(row, "\t"))
		}
		w.Flush()
	}
	fmt.Fprintf(out, "\nclaim: %s\n", e.Claim)
	fmt.Fprintf(out, "verdict: %s\n", e.Verdict(r))
	for _, f := range r.Failed {
		fmt.Fprintf(out, "  broken: %s\n", f)
	}
}

// --- shared helpers ---

// buildDB assembles a database from rule text and fact programs.
func buildDB(rules string, facts ...*program.Program) (*core.DB, error) {
	res, err := lang.Parse(rules)
	if err != nil {
		return nil, err
	}
	db := core.NewDB()
	db.Load(res.Program)
	for _, f := range facts {
		db.Load(f)
	}
	return db, nil
}

// runEach evaluates one query once per strategy, all against one
// database built from rules and facts (queries never write it).
func runEach(cfg Config, rules string, facts *program.Program, query string, opts core.Options, strats ...core.Strategy) ([]*core.Result, error) {
	db, err := buildDB(rules, facts)
	if err != nil {
		return nil, err
	}
	goals, err := lang.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Result, len(strats))
	for i, s := range strats {
		opts.Strategy = s
		if out[i], err = queryDB(cfg, db, goals.Goals, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	return out, nil
}

// run evaluates one query under opts.Strategy.
func run(cfg Config, rules string, facts *program.Program, query string, opts core.Options) (*core.Result, error) {
	res, err := runEach(cfg, rules, facts, query, opts, opts.Strategy)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// queryDB evaluates goals on db under the run's context.
func queryDB(cfg Config, db *core.DB, goals []program.Atom, opts core.Options) (*core.Result, error) {
	if opts.Ctx == nil {
		opts.Ctx = cfg.Ctx
	}
	return db.Query(goals, opts)
}

// sameAnswers reports whether two results hold the same answers,
// sorting both in place (engines return them in evaluation order).
func sameAnswers(a, b *core.Result) bool {
	core.SortAnswers(a.Answers)
	core.SortAnswers(b.Answers)
	return fmt.Sprint(a.Answers) == fmt.Sprint(b.Answers)
}

// series renders a sequence as "a/b/c".
func series(xs ...int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, "/")
}

// choice is the cost policy's decision for the connection literal of
// predicate pred: "split" if any rule split it, "follow" otherwise.
func choice(p *core.Plan, pred string) string {
	for _, d := range p.Decisions {
		if strings.HasPrefix(d.Literal, pred+"(") && d.Choice.String() == "split" {
			return "split"
		}
	}
	return "follow"
}
