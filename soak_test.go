package chainsplit

// Chaos soak: a randomized, seeded stress test that hammers one live
// DB with everything at once — parallel queries across all six
// strategies, concurrent fact loads and rule loads, cancellations,
// tight deadlines, admission pressure, and fault injection (errors,
// panics, stalls) flipping on and off at every engine site. The
// invariants it enforces:
//
//   - every outcome is either a correct result or an error matching
//     one sentinel of the taxonomy — never a torn read, a garbage
//     answer, or an unclassified error;
//   - paired fact batches are seen whole (snapshot isolation);
//   - the process neither deadlocks nor leaks goroutines.
//
// The seed and duration come from CHAINSPLIT_SOAK_SEED and
// CHAINSPLIT_SOAK_DURATION so a failing run can be replayed and CI
// can run longer soaks; defaults keep it a normal-length test.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainsplit/internal/faultinject"
)

const soakSrc = cyclicTravelSrc + `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
e(n0, n1). e(n1, n2). e(n2, n3).

both(X) :- pair(X, 1), pair(X, 2).
pair(0, 1). pair(0, 2).
`

// soakOutcomes tallies what happened, so the test can both log the
// mix and assert the soak actually exercised the paths it claims to.
type soakOutcomes struct {
	ok, canceled, deadline, budget, overloaded, panicked, unsafe, plan, injected atomic.Int64
}

func (o *soakOutcomes) record(t *testing.T, err error) {
	switch {
	case err == nil:
		o.ok.Add(1)
	case errors.Is(err, ErrCanceled):
		o.canceled.Add(1)
	case errors.Is(err, ErrDeadline):
		o.deadline.Add(1)
	case errors.Is(err, ErrBudget):
		o.budget.Add(1)
	case errors.Is(err, ErrOverloaded):
		o.overloaded.Add(1)
	case errors.Is(err, ErrPanic):
		o.panicked.Add(1)
	case errors.Is(err, ErrUnsafe):
		o.unsafe.Add(1)
	case errors.Is(err, ErrPlan):
		o.plan.Add(1)
	default:
		// Injected engine errors surface with their own cause (a
		// forced strategy reports the fault as-is) but must still
		// carry the structured *EvalError envelope.
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Errorf("untyped error escaped the API: %v", err)
			return
		}
		o.injected.Add(1)
	}
}

func (o *soakOutcomes) String() string {
	return fmt.Sprintf("ok=%d canceled=%d deadline=%d budget=%d overloaded=%d panic=%d unsafe=%d plan=%d injected=%d",
		o.ok.Load(), o.canceled.Load(), o.deadline.Load(), o.budget.Load(),
		o.overloaded.Load(), o.panicked.Load(), o.unsafe.Load(), o.plan.Load(),
		o.injected.Load())
}

func (o *soakOutcomes) total() int64 {
	return o.ok.Load() + o.canceled.Load() + o.deadline.Load() + o.budget.Load() +
		o.overloaded.Load() + o.panicked.Load() + o.unsafe.Load() + o.plan.Load() +
		o.injected.Load()
}

func soakEnvInt64(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seed := soakEnvInt64("CHAINSPLIT_SOAK_SEED", time.Now().UnixNano())
	duration := time.Duration(soakEnvInt64("CHAINSPLIT_SOAK_DURATION",
		int64(2*time.Second)))
	t.Logf("soak: seed=%d duration=%v (override with CHAINSPLIT_SOAK_SEED / CHAINSPLIT_SOAK_DURATION)", seed, duration)
	defer faultinject.Reset()

	checkLeaks := leakGuard(t)
	// Capacity below the worker count and a tiny queue so admission
	// pressure and shedding actually happen during the soak.
	db, err := OpenWith(Config{MaxConcurrent: 6, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, soakSrc)

	var (
		out     soakOutcomes
		batches atomic.Int64 // pair batches fully loaded
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	strategies := []Strategy{
		StrategyAuto, StrategyMagic, StrategyMagicFollow,
		StrategyMagicSplit, StrategyBuffered, StrategySeminaive, StrategyTopDown,
	}

	// Query workers: mix of finite queries (answers checked), torn-read
	// probes, and divergent queries under tight deadlines, each under a
	// randomly forced strategy, sometimes with retry.
	const queryWorkers = 10
	for w := 0; w < queryWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				opts := []Option{WithStrategy(strategies[rng.Intn(len(strategies))])}
				if rng.Intn(3) == 0 {
					opts = append(opts, WithRetry(RetryPolicy{
						MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0.5,
						Seed: rng.Int63(),
					}))
				}
				switch rng.Intn(4) {
				case 0: // finite recursion; answers verified when it succeeds
					res, err := db.Query("?- tc(n0, Y).", opts...)
					out.record(t, err)
					if err == nil && len(res.Rows) < 3 {
						t.Errorf("tc answers = %d, want >= 3", len(res.Rows))
					}
				case 1: // torn-read probe: pair cardinality must be even
					res, err := db.Query("?- pair(X, Y).", opts...)
					out.record(t, err)
					if err == nil && len(res.Rows)%2 != 0 {
						t.Errorf("torn read: %d pair tuples", len(res.Rows))
					}
				case 2: // divergent query under a tight deadline + budget
					// The budget is the hard stop: deadline checks fire
					// at level boundaries, and on the cyclic graph an
					// unbudgeted level grows exponentially past them.
					opts = append(opts,
						WithTimeout(time.Duration(1+rng.Intn(20))*time.Millisecond),
						WithBudgets(2000, 2000, 2000))
					_, err := db.Query(cyclicTravelQuery, opts...)
					out.record(t, err)
				case 3: // cancellation mid-flight
					ctx, cancel := context.WithCancel(context.Background())
					delay := time.Duration(rng.Intn(5)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
					_, err := db.QueryCtx(ctx, cyclicTravelQuery, append(opts,
						WithTimeout(100*time.Millisecond),
						WithBudgets(2000, 2000, 2000))...)
					out.record(t, err)
					cancel()
				}
			}
		}()
	}

	// Fact loader: pair batches that must be visible atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			err := db.LoadFacts("pair", [][]Term{
				{Int(k), Int(1)},
				{Int(k), Int(2)},
			})
			if err != nil {
				t.Errorf("LoadFacts: %v", err)
				return
			}
			batches.Store(k)
			time.Sleep(time.Millisecond)
		}
	}()

	// Rule loader: periodically loads fresh rules, forcing analysis
	// rebuilds on a new generation while queries run on old ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := db.Exec(fmt.Sprintf("aux%d(X) :- e(X, Y).", i))
			if err != nil {
				t.Errorf("Exec: %v", err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Chaos agent: flips random faults on and off at every engine site.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		sites := []string{
			faultinject.SiteChainCompile, faultinject.SiteMagicRewrite,
			faultinject.SiteSeminaiveIterate, faultinject.SiteCountingLevel,
			faultinject.SiteTopdownStep,
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			site := sites[rng.Intn(len(sites))]
			switch rng.Intn(4) {
			case 0:
				faultinject.Set(site, func() error {
					return errors.New("soak: injected error")
				})
			case 1:
				faultinject.Set(site, func() error {
					panic("soak: injected panic")
				})
			case 2:
				stall := time.Duration(1+rng.Intn(3)) * time.Millisecond
				faultinject.Set(site, func() error {
					time.Sleep(stall)
					return nil
				})
			case 3:
				faultinject.Clear(site)
			}
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	faultinject.Reset()
	t.Logf("soak outcomes: %s; %d pair batches, final generation %d, stats %+v",
		out.String(), batches.Load(), db.Generation(), db.Stats())

	// The soak must have actually exercised success and failure paths.
	if out.ok.Load() == 0 {
		t.Error("no query succeeded during the soak")
	}
	if total := out.total(); total < 50 {
		t.Errorf("only %d queries completed; soak too weak", total)
	}

	// Post-soak correctness: with faults cleared, the final generation
	// answers exactly.
	res, err := db.Query("?- both(X).")
	if err != nil {
		t.Fatalf("post-soak query: %v", err)
	}
	if want := batches.Load() + 1; int64(len(res.Rows)) != want {
		t.Errorf("post-soak both = %d, want %d (every batch whole)", len(res.Rows), want)
	}

	// No leaked goroutines: the worker pool is gone and no query
	// goroutine is stuck on a lock or channel.
	checkLeaks()
}

// TestDurableChaosSoak is the durability counterpart of TestChaosSoak:
// seeded cycles of open → mutate under concurrent readers → crash (or
// close) → reopen. Crashes come in three flavors — clean Close, hard
// abandonment mid-flight, and a torn final append injected at the
// wal.append site — and cycles alternate between log-only and
// snapshot-compacted cadences. The invariant held at every reopen: the
// recovered generation is exactly the last durable one (never past it,
// never reset), and the fact count matches the generation bit-exactly:
// every generation after the first added one mark, so marks == gen-1.
func TestDurableChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seed := soakEnvInt64("CHAINSPLIT_SOAK_SEED", time.Now().UnixNano())
	duration := time.Duration(soakEnvInt64("CHAINSPLIT_SOAK_DURATION",
		int64(1500*time.Millisecond)))
	t.Logf("durable soak: seed=%d duration=%v", seed, duration)
	defer faultinject.Reset()

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed ^ 0xd00b1e))
	deadline := time.Now().Add(duration)
	strategies := []Strategy{
		StrategyAuto, StrategyMagic, StrategyMagicFollow,
		StrategyMagicSplit, StrategyBuffered, StrategySeminaive, StrategyTopDown,
	}

	nextMark := int64(0) // never reused, even when a torn write loses one
	prevGen := uint64(0)
	cycles, crashes, torn := 0, 0, 0
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		cycles++
		every := -1 // log-only on even cycles, compacted on odd
		if cycle%2 == 1 {
			every = 4
		}
		db, err := OpenWith(Config{Dir: dir, SnapshotEvery: every})
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		gen := db.Generation()
		if gen < prevGen {
			t.Fatalf("cycle %d: generation went backwards: %d after %d", cycle, gen, prevGen)
		}
		if cycle == 0 {
			mustExec(t, db, "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\ne(n0, n1). e(n1, n2). e(n2, n3).")
		} else {
			// Recovered state answers exactly: one mark per generation
			// after the rules generation.
			res, err := db.Query("?- m(K).")
			if err != nil {
				t.Fatalf("cycle %d: recovered mark query: %v", cycle, err)
			}
			if uint64(len(res.Rows)) != gen-1 {
				t.Fatalf("cycle %d: %d marks at generation %d, want %d", cycle, len(res.Rows), gen, gen-1)
			}
		}

		// Concurrent readers under random strategies while the writer
		// mutates: snapshot isolation means they must never error and
		// never see a partial graph.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(cycle*31+w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := db.Query("?- tc(n0, Y).", WithStrategy(strategies[r.Intn(len(strategies))]))
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if len(res.Rows) < 3 {
						t.Errorf("reader saw %d tc answers, want >= 3", len(res.Rows))
						return
					}
				}
			}()
		}

		// Mutation burst, sometimes under a lying fsync (the write
		// still lands; the lie exercises the skip path under load).
		if rng.Intn(3) == 0 {
			faultinject.Set(faultinject.SiteWALSync, func() error { return faultinject.ErrSkipOp })
		}
		for i, n := 0, 3+rng.Intn(6); i < n; i++ {
			nextMark++
			if err := db.LoadFacts("m", [][]Term{{Int(nextMark)}}); err != nil {
				t.Fatalf("cycle %d: LoadFacts: %v", cycle, err)
			}
			if rng.Intn(5) == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("cycle %d: checkpoint: %v", cycle, err)
				}
			}
		}
		faultinject.Clear(faultinject.SiteWALSync)
		close(stop)
		wg.Wait()
		prevGen = db.Generation()

		switch mode := rng.Intn(3); {
		case mode == 0:
			if err := db.Close(); err != nil {
				t.Fatalf("cycle %d: close: %v", cycle, err)
			}
		case mode == 2 && every == -1:
			// Crash mid-append: the frame is torn at a random point but
			// reported as written. Recovery must drop it — exactly the
			// pre-tear generation comes back.
			torn++
			restore := faultinject.SetData(faultinject.SiteWALAppend, func(b []byte) ([]byte, error) {
				return b[:rng.Intn(len(b))], nil
			})
			nextMark++ // this mark is lost forever
			if err := db.LoadFacts("m", [][]Term{{Int(nextMark)}}); err != nil {
				t.Fatalf("cycle %d: torn LoadFacts: %v", cycle, err)
			}
			restore()
			crashes++
		default:
			crashes++ // hard crash: abandon the handle without Close
		}
	}

	db, err := OpenWith(Config{Dir: dir})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer db.Close()
	gen := db.Generation()
	if gen < prevGen {
		t.Fatalf("final generation %d went backwards from %d", gen, prevGen)
	}
	res, err := db.Query("?- m(K).")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Rows)) != gen-1 {
		t.Fatalf("final: %d marks at generation %d, want %d", len(res.Rows), gen, gen-1)
	}
	report, ok, err := Fsck(dir)
	if err != nil || !ok {
		t.Fatalf("post-soak fsck: ok=%v err=%v\n%s", ok, err, report)
	}
	t.Logf("durable soak: %d cycles (%d crashes, %d torn appends), final generation %d, %d marks",
		cycles, crashes, torn, gen, len(res.Rows))
}
