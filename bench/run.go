package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"chainsplit/internal/term"
)

// phase is what one measured phase (or several, merged) observed.
type phase struct {
	ops       [][]time.Duration // per operation class
	cycles    []time.Duration   // summed operation latency per cycle
	wall      time.Duration
	cpu       time.Duration
	allocated uint64
	attempted int
	failed    int
}

func (p *phase) merge(o *phase) {
	if p.ops == nil {
		p.ops = make([][]time.Duration, len(o.ops))
	}
	for i := range o.ops {
		p.ops[i] = append(p.ops[i], o.ops[i]...)
	}
	p.cycles = append(p.cycles, o.cycles...)
	p.wall += o.wall
	p.cpu += o.cpu
	p.allocated += o.allocated
	p.attempted += o.attempted
	p.failed += o.failed
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the workload's clients closed-loop for dur: each client
// starts its next cycle only when the previous one has completed.
func drive(w *workloadDef, e env, rngs []*rand.Rand, dur time.Duration) *phase {
	recs := make([]*recorder, w.clients)
	cycles := make([][]time.Duration, w.clients)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		recs[c] = &recorder{ops: make([][]time.Duration, len(w.ops))}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				recs[c].cycle = 0
				e.cycle(c, rngs[c], recs[c])
				cycles[c] = append(cycles[c], recs[c].cycle)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{ops: make([][]time.Duration, len(w.ops))}
	for c, r := range recs {
		for i := range r.ops {
			p.ops[i] = append(p.ops[i], r.ops[i]...)
		}
		p.cycles = append(p.cycles, cycles[c]...)
		p.attempted += r.attempted
		p.failed += r.failed
	}
	return p
}

// start sets the workload up and warms it with one cycle per client, so
// that lazy set-up (the generation's analysis, first-touch interning)
// is paid, and counted, before anything is measured: setup_s is the
// time from nothing to a warm system. live is the heap that system
// holds after a forced collection. The warming cycle's operations are
// checked like any other and returned as a phase.
func start(w *workloadDef, seed int64, sz sizes) (env, []*rand.Rand, *setupMeter, *phase, error) {
	rngs := make([]*rand.Rand, w.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*131 + int64(c)))
	}
	e, m, err := w.setup(seed, sz)
	if err != nil {
		if e != nil {
			e.close()
		}
		return nil, nil, nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var warm *phase
	m.timed(func() error { warm = drive(w, e, rngs, 0); return nil })
	m.markLive()
	return e, rngs, m, warm, nil
}

// measure runs the closed loop for dur on a warm environment, after a
// forced collection.
func measure(w *workloadDef, e env, rngs []*rand.Rand, dur time.Duration) *phase {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	p := drive(w, e, rngs, dur)
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	p.allocated = after.TotalAlloc - before.TotalAlloc
	return p
}

// runResult is what one invocation reports.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Samples is the sample count behind each median.
	Samples map[string]int
	// Notes are the human-readable lines printed above the result.
	Notes []string
}

// opLines renders each operation class's median with its tail beside
// it: the highest percentile with at least ten samples beyond it.
func opLines(w *workloadDef, p *phase) []string {
	var out []string
	for i, name := range w.ops {
		t := tailOf(p.ops[i])
		out = append(out, fmt.Sprintf("%-20s %-13s n=%-6d p50 %9.3f ms   p%.1f %9.3f ms (%d beyond)",
			w.name, name, len(p.ops[i]), ms(medianDur(p.ops[i])), t.pct, ms(t.value), t.beyond))
	}
	return out
}

// runUntraced is the timed run: sz.rounds times it sets the workload
// up and measures a closed loop for its share of seconds, then reports
// the end-to-end metrics over all rounds. Several rounds give setup_s a
// median and keep the durable stores from growing far past their
// preloaded size within one measured phase.
func runUntraced(w *workloadDef, seed int64, seconds float64, sz sizes) (*runResult, error) {
	res := &runResult{Metrics: map[string]float64{}, Samples: map[string]int{}}
	var all phase
	var setups []float64
	var live uint64
	per := time.Duration(seconds * float64(time.Second) / float64(sz.rounds))
	for r := 0; r < sz.rounds; r++ {
		e, rngs, m, warm, err := start(w, seed<<8+int64(r), sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, m.d.Seconds())
		if r == 0 {
			// Later rounds find their terms already interned, so only
			// the first round holds everything a fresh process would.
			live = m.live
		}
		all.merge(measure(w, e, rngs, per))
		a, f := e.finish(r)
		all.attempted += a + warm.attempted
		all.failed += f + warm.failed
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", w.name, err)
		}
	}
	n := float64(len(all.cycles))
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["cycle_p50_ms"] = ms(medianDur(all.cycles))
	res.Metrics["cycles_per_s"] = n / all.wall.Seconds()
	res.Metrics["cpu_ms_per_cycle"] = ms(all.cpu) / n
	res.Metrics["alloc_kb_per_cycle"] = float64(all.allocated) / 1e3 / n
	res.Metrics["live_heap_mb"] = float64(live) / 1e6
	res.Samples["setup_s"], res.Samples["live_heap_mb"] = len(setups), 1
	for _, name := range []string{"cycle_p50_ms", "cycles_per_s", "cpu_ms_per_cycle", "alloc_kb_per_cycle"} {
		res.Samples[name] = len(all.cycles)
	}
	res.Notes = opLines(w, &all)
	return res, nil
}

// runTraced is the separate traced run: one set-up, a shortened timed
// phase for the per-operation medians and tails, then the workload's
// staged replay and layer probes under the tracer.
func runTraced(w *workloadDef, seed int64, seconds float64, sz sizes) (*runResult, error) {
	res := &runResult{Metrics: map[string]float64{}, Samples: map[string]int{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	budget := time.Duration(seconds * float64(time.Second))
	e, rngs, _, warm, err := start(w, seed<<8, sz)
	if err != nil {
		return nil, err
	}
	ph := measure(w, e, rngs, budget*35/100)
	res.Notes = opLines(w, ph)
	for i, name := range w.ops {
		if _, declared := res.Metrics["chainsplit."+name+"_p50_ms"]; declared {
			res.Metrics["chainsplit."+name+"_p50_ms"] = ms(medianDur(ph.ops[i]))
			res.Metrics["chainsplit."+name+"_tail_ms"] = ms(tailOf(ph.ops[i]).value)
			res.Samples["chainsplit."+name+"_p50_ms"] = len(ph.ops[i])
		}
	}
	tr := newTracer()
	a, f := e.layers(ph, budget*30/100, rand.New(rand.NewSource(seed*977)), tr, res.Metrics)
	st := term.DictStats()
	res.Metrics["term.dict_terms"] = float64(st.Syms + st.Strs + st.Comps + st.BigInts)
	fa, ff := e.finish(0)
	res.Attempted, res.Failed = warm.attempted+ph.attempted+a+fa, warm.failed+ph.failed+f+ff
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	path, err := tr.write(outDir, w.name)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%-20s trace: %d spans of %d replayed operations in %s", w.name, len(tr.spans), tr.op+1, path))
	res.Notes = append(res.Notes, fmt.Sprintf("%-20s replayed layer spans leave %.1f%% of the operations' time unattributed", w.name, 100*res.Metrics["core.query_unattributed_share"]))
	return res, nil
}
