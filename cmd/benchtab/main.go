// Command benchtab regenerates the reproduction's evaluation tables
// and figures (see DESIGN.md and EXPERIMENTS.md for the mapping to the
// paper) and checks each paper claim against them.
//
// Usage:
//
//	benchtab              # run every experiment
//	benchtab -exp T2      # run one experiment
//	benchtab -list        # list experiments
//	benchtab -timeout 2m  # bound the whole run (typed error on expiry)
//	benchtab -metrics     # print the process metrics snapshot after the run
//
// It exits 1 when an experiment cannot run or a claim does not hold.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"chainsplit"
	"chainsplit/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	metrics := flag.Bool("metrics", false, "print the process metrics snapshot (queries, retries, sheds, parallel work, interned terms) after the run")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}
	code := run(*exp, *timeout)
	if *metrics {
		fmt.Print("\nprocess metrics:\n" + chainsplit.MetricsSnapshot())
	}
	os.Exit(code)
}

// run executes the selected experiments and returns the exit code.
func run(id string, timeout time.Duration) int {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	exps := experiments.All()
	if id != "" {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (use -list)\n", id)
			return 1
		}
		exps = []experiments.Experiment{e}
	}
	code := 0
	for _, e := range exps {
		r, err := e.Run(experiments.Config{Ctx: ctx})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", e.ID, err)
			return 1
		}
		e.Print(os.Stdout, r)
		if len(r.Failed) > 0 {
			code = 1
		}
	}
	return code
}
