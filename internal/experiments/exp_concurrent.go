package experiments

// C1 measures the concurrent serving layer: the same batch of
// read-only recursive queries executed back-to-back versus spread
// over N concurrent clients against one live database. Under snapshot
// isolation the parallel run scales with cores (and even on one core
// shows that queries do not serialize behind each other), while the
// admission stats show the serving layer at work. This experiment has
// no counterpart in the paper — it validates the serving substrate
// the reproduction's engines run on.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit"
)

func init() {
	register(Experiment{
		ID:       "C1",
		Title:    "concurrent serving: parallel clients vs serialized baseline",
		PaperRef: "serving-layer validation (no paper counterpart)",
		Claim: "both runs finish with nothing shed; the parallel run speeds up with\n" +
			"available cores (on a single core it only shows that queries don't\n" +
			"serialize behind a lock).",
		Run: runC1,
	})
}

func runC1(cfg Config) (*Report, error) {
	const nodes, queries = 32, 40
	clients := cfg.parallel()

	db, err := chainsplit.OpenWith(chainsplit.Config{MaxConcurrent: clients})
	if err != nil {
		return nil, err
	}
	if err := db.Exec("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y)."); err != nil {
		return nil, err
	}
	var facts [][]chainsplit.Term
	for i := 0; i < nodes; i++ {
		facts = append(facts, []chainsplit.Term{
			chainsplit.Sym(fmt.Sprintf("n%d", i)),
			chainsplit.Sym(fmt.Sprintf("n%d", i+1)),
		})
	}
	if err := db.LoadFacts("e", facts); err != nil {
		return nil, err
	}
	const query = "?- tc(n0, Y)."
	// Warm the analysis/plan caches so both runs measure evaluation.
	if _, err := db.Query(query); err != nil {
		return nil, err
	}

	serialStart := time.Now()
	for i := 0; i < queries; i++ {
		if err := ctxErr(cfg); err != nil {
			return nil, err
		}
		if _, err := db.Query(query); err != nil {
			return nil, err
		}
	}
	serial := time.Since(serialStart)

	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	parallelStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(queries) {
				if err := ctxErr(cfg); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if _, err := db.QueryCtx(cfg.Ctx, query); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	parallel := time.Since(parallelStart)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}

	r := &Report{}
	t := r.table("", "clients", "queries", "serial", "parallel", "speedup")
	t.add(1, queries, ms(serial), "-", "-")
	t.add(clients, queries, "-", ms(parallel), fmt.Sprintf("%.2fx", float64(serial)/float64(parallel)))
	s := db.Stats()
	r.table(fmt.Sprintf("admission: admitted=%d queued=%d shed=%d max-queue-wait=%s",
		s.Admitted, s.Queued, s.Rejected, s.MaxQueueWait))
	r.check(s.Rejected == 0, "%d queries were shed", s.Rejected)
	return r, nil
}

// ctxErr reports the run context's state as a typed error.
func ctxErr(cfg Config) error {
	if cfg.Ctx == nil {
		return nil
	}
	return cfg.Ctx.Err()
}
