// Command chainsplitctl is the interactive front-end to the deductive
// database: it loads programs and evaluates or explains queries.
//
// Usage:
//
//	chainsplitctl prog.dl                      # load + run embedded ?- queries
//	chainsplitctl -q '?- sg(ann, Y).' prog.dl  # one query
//	chainsplitctl -explain -q '…' prog.dl      # print the plan only
//	chainsplitctl -analyze -q '…' prog.dl      # run + estimated-vs-observed report
//	chainsplitctl -i prog.dl                   # REPL on stdin
//	chainsplitctl -strategy magic-follow …     # force a strategy
//	chainsplitctl -timeout 500ms -q '…' …      # bound query wall-clock time
//	chainsplitctl -max-tuples 100000 -q '…' …  # bound derived tuples
//	chainsplitctl -concurrency 4 -i prog.dl    # cap in-flight queries
//	chainsplitctl -dir ./data prog.dl          # durable database (WAL + snapshots)
//	chainsplitctl -dir ./data -fsck            # offline integrity check, no open
//	chainsplitctl -dir ./data -scrub           # online integrity pass (safe with a live writer)
//	chainsplitctl -dir ./data -serve :7070 -i  # lead: serve the WAL to replicas
//	chainsplitctl -follow host:7070 -q '…'     # read from a replica follower
//	chainsplitctl -follow host:7070 -dir ./f   # durable follower (resumes on restart)
//	chainsplitctl -follow … -max-staleness 1s  # bound how old served answers may be
//	chainsplitctl -dir ./data -cluster 3 -q …  # self-healing replica group (docs/cluster.md)
//
// A server invocation (-serve, -follow or -cluster) given no query,
// no -i and no embedded queries keeps serving until SIGINT or SIGTERM,
// then shuts down gracefully: it stops accepting, flushes and fsyncs
// the write-ahead log, closes cleanly and exits 0.
//
// Exit codes (documented in docs/robustness.md and docs/durability.md):
//
//	0  success, a query with no answers included
//	1  usage error, program/fact load failure (including -fsck on a
//	   directory that holds no durable store at all), or a one-shot
//	   query (-q or embedded) that failed otherwise: a syntax error or
//	   a query the planner or the chosen strategy refused
//	2  a limit stopped the query: -timeout, the -max-tuples budget,
//	   admission-control load shedding, or a -follow read shed because
//	   the follower exceeded -max-staleness
//	3  durable-state corruption: the store under -dir failed to open
//	   (recovery found state it cannot trust) or -fsck found problems
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chainsplit"
)

var strategies = map[string]chainsplit.Strategy{
	"auto":         chainsplit.StrategyAuto,
	"magic":        chainsplit.StrategyMagic,
	"magic-follow": chainsplit.StrategyMagicFollow,
	"magic-split":  chainsplit.StrategyMagicSplit,
	"buffered":     chainsplit.StrategyBuffered,
	"topdown":      chainsplit.StrategyTopDown,
	"seminaive":    chainsplit.StrategySeminaive,
}

func main() {
	query := flag.String("q", "", "query to evaluate (default: queries embedded in the program)")
	explain := flag.Bool("explain", false, "print the evaluation plan instead of answers")
	analyze := flag.Bool("analyze", false, "run the query and print the EXPLAIN ANALYZE calibration report (estimated vs. observed expansion per split/follow decision)")
	interactive := flag.Bool("i", false, "read queries from stdin after loading")
	strategyName := flag.String("strategy", "auto", "evaluation strategy: auto|magic|magic-follow|magic-split|buffered|topdown|seminaive")
	metrics := flag.Bool("metrics", false, "print evaluation metrics after answers, and the process metrics snapshot on exit")
	trace := flag.Bool("trace", false, "print the evaluation trace (typed phase events) after answers")
	dump := flag.Bool("dump", false, "print the loaded program and exit")
	compile := flag.String("compile", "", "print the compiled chain form of pred/arity and exit")
	facts := flag.String("facts", "", "bulk-load tab-separated facts: pred=path.tsv (may repeat comma-separated)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (e.g. 500ms, 10s); 0 means none")
	maxTuples := flag.Int("max-tuples", 0, "bound on evaluation effort per query (derived tuples, resolution steps, buffered answers); 0 keeps the defaults")
	concurrency := flag.Int("concurrency", 0, "max in-flight queries before load shedding; 0 keeps the default")
	dir := flag.String("dir", "", "durable database directory (write-ahead log + snapshots); empty means in-memory")
	fsck := flag.Bool("fsck", false, "validate the durable store under -dir (checksums, term-ID integrity, generation monotonicity) and exit; 0 clean, 3 corrupt")
	scrubOnce := flag.Bool("scrub", false, "run one online integrity pass over the store under -dir (the fsck checks with live-writer leniencies; safe while another process writes) and exit; 0 clean, 3 corrupt")
	serve := flag.String("serve", "", "serve this database's write-ahead log to replica followers on addr (requires -dir)")
	follow := flag.String("follow", "", "tail a replication leader at addr and serve read-only answers (with -dir the follower is durable and resumes after a restart)")
	maxStale := flag.Duration("max-staleness", 0, "with -follow: refuse reads (exit 2) when the follower's view of the leader is older than this; 0 serves at any staleness")
	clusterN := flag.Int("cluster", 0, "open a self-healing replica group of N nodes under -dir/node0..node<N-1>: automated failover with epoch fencing, health-aware read routing")
	flag.Parse()

	if *fsck {
		if *dir == "" {
			fail("-fsck needs -dir")
		}
		report, ok, err := chainsplit.Fsck(*dir)
		if err != nil {
			// Exit 3 is reserved for corruption of state that exists; a
			// directory with no store at all is a usage error — wrong
			// -dir, or a database that was never created.
			if errors.Is(err, chainsplit.ErrNoStore) {
				fail("fsck: %s holds no durable store (nothing to check; is -dir right?)", *dir)
			}
			fail("fsck: %v", err)
		}
		fmt.Print(report)
		if !ok {
			os.Exit(3)
		}
		return
	}
	if *scrubOnce {
		if *dir == "" {
			fail("-scrub needs -dir")
		}
		report, ok, err := chainsplit.Scrub(*dir)
		if err != nil {
			if errors.Is(err, chainsplit.ErrNoStore) {
				fail("scrub: %s holds no durable store (nothing to check; is -dir right?)", *dir)
			}
			fail("scrub: %v", err)
		}
		fmt.Print(report)
		if !ok {
			os.Exit(3)
		}
		return
	}

	strat, ok := strategies[*strategyName]
	if !ok {
		fail("unknown strategy %q", *strategyName)
	}
	if *timeout < 0 {
		fail("negative -timeout %v (use 0 for no deadline)", *timeout)
	}
	if *maxTuples < 0 {
		fail("negative -max-tuples %d (use 0 for the default)", *maxTuples)
	}
	if *concurrency < 0 {
		fail("negative -concurrency %d (use 0 for the default)", *concurrency)
	}
	if *maxStale < 0 {
		fail("negative -max-staleness %v (use 0 to serve at any staleness)", *maxStale)
	}
	if *maxStale > 0 && *follow == "" && *clusterN == 0 {
		fail("-max-staleness only applies to a -follow replica or a -cluster group")
	}
	if *clusterN < 0 {
		fail("negative -cluster %d", *clusterN)
	}
	if *clusterN > 0 {
		if *dir == "" {
			fail("-cluster needs -dir (each node stores its state under -dir/node<i>)")
		}
		if *follow != "" || *serve != "" {
			fail("-cluster manages its own replication; drop -follow/-serve")
		}
		if *explain || *analyze || *dump || *compile != "" {
			fail("-explain/-analyze/-dump/-compile run against a single database, not a -cluster group")
		}
	}

	cfg := chainsplit.Config{MaxConcurrent: *concurrency, Dir: *dir, MaxStaleness: *maxStale}
	var db *chainsplit.DB
	var cl *chainsplit.Cluster
	var err error
	switch {
	case *clusterN > 0:
		cfg.Cluster = &chainsplit.ClusterConfig{Replicas: *clusterN}
		cl, err = chainsplit.OpenCluster(cfg)
	case *follow != "":
		db, err = chainsplit.OpenFollower(*follow, cfg)
	default:
		db, err = chainsplit.OpenWith(cfg)
	}
	if err != nil {
		// Corruption gets its own exit code: "the store is damaged" is
		// actionable (restore a backup, run -fsck) in a way "bad flag"
		// is not.
		if errors.Is(err, chainsplit.ErrCorrupt) {
			fmt.Fprintf(os.Stderr, "chainsplitctl: %v\n", err)
			os.Exit(3)
		}
		fail("%v", err)
	}
	closeAll := func() error {
		if cl != nil {
			return cl.Close()
		}
		return db.Close()
	}
	defer closeAll()
	execSrc := func(src string) error {
		if cl != nil {
			return cl.Exec(src)
		}
		return db.Exec(src)
	}
	queryFn := func(q string, opts ...chainsplit.Option) (*chainsplit.Result, error) {
		if cl != nil {
			return cl.Query(q, opts...)
		}
		return db.Query(q, opts...)
	}
	if cl != nil {
		fmt.Fprintf(os.Stderr, "chainsplitctl: cluster of %d nodes under %s (leader epoch %d)\n",
			*clusterN, *dir, cl.Epoch())
	}
	if *serve != "" {
		addr, err := db.ServeReplication(*serve)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "chainsplitctl: serving replication on %s\n", addr)
	}
	if *follow != "" {
		// A one-shot read against a freshly started follower would race
		// its initial catch-up and answer from an empty database; wait
		// for the stream to quiesce first (bounded, best-effort — a
		// leader that keeps writing just means we read a recent view).
		last, stable := uint64(0), 0
		for begin := time.Now(); time.Since(begin) < 2*time.Second && stable < 3; time.Sleep(25 * time.Millisecond) {
			g := db.Generation()
			if g != last {
				last, stable = g, 0
			} else if g > 0 || time.Since(begin) > 500*time.Millisecond {
				stable++
			}
		}
	}
	var embedded []string
	for _, path := range flag.Args() {
		var data []byte
		var err error
		if path == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			fail("%v", err)
		}
		// Split out embedded queries so Exec accepts the rest.
		prog, queries := splitQueries(string(data))
		if err := execSrc(prog); err != nil {
			fail("%s: %v", path, err)
		}
		embedded = append(embedded, queries...)
	}

	if *facts != "" {
		var ldr factsLoader = db
		if cl != nil {
			ldr = cl
		}
		for _, spec := range strings.Split(*facts, ",") {
			if err := loadTSV(ldr, spec); err != nil {
				fail("%v", err)
			}
		}
	}

	if *dump {
		fmt.Print(db.Dump())
		return
	}
	if *compile != "" {
		info, err := db.CompileInfo(*compile)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(info)
		return
	}

	runOne := func(q string) error {
		opts := []chainsplit.Option{chainsplit.WithStrategy(strat)}
		if *trace {
			opts = append(opts, chainsplit.WithTrace())
		}
		if *timeout > 0 {
			opts = append(opts, chainsplit.WithTimeout(*timeout))
		}
		if *maxTuples > 0 {
			// One flag bounds every engine's effort unit: derived tuples
			// (bottom-up), resolution steps (top-down), answers (buffered)
			// — otherwise a divergent query under the auto-chosen buffered
			// strategy would sail past a tuples-only bound.
			opts = append(opts, chainsplit.WithBudgets(*maxTuples, *maxTuples, *maxTuples))
		}
		if *explain {
			plan, err := db.Explain(q, opts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				return err
			}
			fmt.Print(plan)
			return nil
		}
		if *analyze {
			an, err := db.ExplainAnalyze(q, opts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %s\n", limitMessage(err, *timeout))
				return err
			}
			fmt.Print(an.Report)
			fmt.Printf("(%d answers, %s, %v)\n", len(an.Result.Rows), an.Result.Strategy, an.Result.Duration)
			return nil
		}
		res, err := queryFn(q, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %s\n", limitMessage(err, *timeout))
			return err
		}
		printResult(q, res, *metrics, *trace)
		return nil
	}
	// One-shot modes exit non-zero when the query failed, so scripts
	// can tell "no answers" (0) from "gave up" (2) and from "refused or
	// malformed" (1). A limit gave up: a deadline, a budget, load
	// shedding (the query was never evaluated, only refused for now) or
	// a staleness shed on a -follow replica (the follower declined to
	// serve an old answer).
	exitOnFailure := func(err error) {
		if err == nil {
			return
		}
		code := 1
		if errors.Is(err, chainsplit.ErrDeadline) || errors.Is(err, chainsplit.ErrBudget) ||
			errors.Is(err, chainsplit.ErrOverloaded) || errors.Is(err, chainsplit.ErrStale) {
			code = 2
		}
		closeAll()
		os.Exit(code)
	}

	if cl != nil && (*query != "" || len(embedded) > 0) {
		// One-shot reads round-robin over the followers; give them a
		// bounded chance to apply what was just loaded so the answer
		// does not depend on which replica the router picks.
		cl.WaitReplicated(cl.Generation(), 0, 2*time.Second)
	}

	switch {
	case *query != "":
		exitOnFailure(runOne(*query))
	case *interactive:
		fmt.Println("chainsplitctl: enter queries (empty line to quit)")
		sc := bufio.NewScanner(os.Stdin)
		for {
			fmt.Print("?- ")
			if !sc.Scan() {
				break
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				break
			}
			runOne(line)
		}
	case len(embedded) > 0:
		for _, q := range embedded {
			fmt.Printf("%s\n", q)
			err := runOne(q)
			fmt.Println()
			exitOnFailure(err)
		}
	case *serve != "" || *follow != "" || cl != nil:
		// A server with nothing else to do serves until told to stop,
		// then shuts down gracefully: stop accepting, flush and fsync
		// the log, close, exit 0. The readiness line is on stderr so
		// scripts (and the re-exec test) can synchronize on it.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		// The handler is installed before the readiness line: a script
		// that signals the moment it reads the line must never catch
		// the default (killing) disposition.
		fmt.Fprintln(os.Stderr, "chainsplitctl: serving until SIGINT/SIGTERM")
		s := <-sig
		fmt.Fprintf(os.Stderr, "chainsplitctl: %v: shutting down\n", s)
		if err := closeAll(); err != nil {
			fail("shutdown: %v", err)
		}
		os.Exit(0)
	default:
		fail("no query: pass -q, -i, or a program with embedded ?- queries")
	}

	if *metrics {
		fmt.Print("\nprocess metrics:\n" + chainsplit.MetricsSnapshot())
	}
}

// limitMessage compresses deadline/budget failures to one clean line
// (the full EvalError rendering is for programmatic use); other errors
// pass through unchanged.
func limitMessage(err error, timeout time.Duration) string {
	switch {
	case errors.Is(err, chainsplit.ErrDeadline) && timeout > 0:
		return fmt.Sprintf("query exceeded the %v deadline (raise -timeout or add constraints)", timeout)
	case errors.Is(err, chainsplit.ErrDeadline):
		return "query exceeded its deadline (raise -timeout or add constraints)"
	case errors.Is(err, chainsplit.ErrBudget):
		return "query exceeded its evaluation budget (raise -max-tuples or add constraints)"
	case errors.Is(err, chainsplit.ErrOverloaded):
		return "query shed by admission control (raise -concurrency or retry later)"
	case errors.Is(err, chainsplit.ErrStale):
		return "read refused: this follower lags the leader past -max-staleness (retry, or query the leader)"
	default:
		return err.Error()
	}
}

// factsLoader is the bulk-load surface loadTSV needs; *chainsplit.DB
// and *chainsplit.Cluster both provide it.
type factsLoader interface {
	LoadFacts(pred string, tuples [][]chainsplit.Term) error
}

// loadTSV bulk-loads a "pred=path.tsv" spec: one fact per line, one
// term per tab-separated column (terms in surface syntax: symbols,
// integers, strings, lists).
func loadTSV(db factsLoader, spec string) error {
	eq := strings.IndexByte(spec, '=')
	if eq <= 0 {
		return fmt.Errorf("bad -facts spec %q (want pred=path.tsv)", spec)
	}
	pred, path := spec[:eq], spec[eq+1:]
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tuples [][]chainsplit.Term
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		row := make([]chainsplit.Term, len(cols))
		for i, col := range cols {
			t, err := chainsplit.ParseTerm(strings.TrimSpace(col))
			if err != nil {
				return fmt.Errorf("%s:%d: column %d: %v", path, lineNo+1, i+1, err)
			}
			row[i] = t
		}
		tuples = append(tuples, row)
	}
	return db.LoadFacts(pred, tuples)
}

// splitQueries separates "?- …." clauses from the rest of the source.
func splitQueries(src string) (prog string, queries []string) {
	var progLines []string
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "?-") {
			queries = append(queries, trimmed)
			continue
		}
		progLines = append(progLines, line)
	}
	return strings.Join(progLines, "\n"), queries
}

func printResult(q string, res *chainsplit.Result, metrics, trace bool) {
	if len(res.Rows) == 0 {
		fmt.Println("no.")
	} else if len(res.Vars) == 0 {
		fmt.Println("yes.")
	} else {
		for _, row := range res.Rows {
			var parts []string
			for _, v := range res.Vars {
				parts = append(parts, fmt.Sprintf("%s = %s", v, row[v]))
			}
			fmt.Println(strings.Join(parts, ", "))
		}
		fmt.Printf("(%d answers, %s, %v)\n", len(res.Rows), res.Strategy, res.Duration)
	}
	if metrics {
		m := res.Metrics
		fmt.Printf("metrics: derived=%d magic=%d contexts=%d edges=%d pruned=%d steps=%d\n",
			m.DerivedTuples, m.MagicTuples, m.Contexts, m.Edges, m.Pruned, m.Steps)
	}
	if trace {
		for _, ev := range res.Metrics.Events {
			fmt.Println("  " + ev)
		}
		for _, ev := range res.Metrics.TraceEvents {
			fmt.Println("  " + ev.String())
		}
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "chainsplitctl: "+format+"\n", args...)
	os.Exit(1)
}
