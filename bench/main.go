// Command bench is the repository benchmark: five workloads driven
// closed-loop through the public chainsplit.DB for the end-to-end
// metrics, and a separate traced run that replays operations stage by
// stage through the internal layers' exported functions for the
// per-layer metrics. BENCHMARK.json at the repository root declares the
// same workloads and metrics; bench/README.md explains them.
//
//	bash bench/run.sh --workload short-query --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1            # every workload, timed and traced
//	go run ./bench -repeat 10         # ten seeds, spreads checked against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the timed run (end-to-end metrics)")
	quick := flag.Bool("quick", false, "smoke sizes: small inputs, one round")
	repeat := flag.Int("repeat", 1, "with -workload all: run the set on this many consecutive seeds and check every end-to-end spread against its bound")
	flag.Parse()

	// Closed loops from one process with at most nproc client
	// goroutines; the value is recorded with the results.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	if *name != "all" {
		os.Exit(runOne(*name, *seed, *seconds, *trace == 1, sz))
	}
	os.Exit(runAll(*seed, *seconds, *quick, *repeat))
}

// runOne runs one workload in this process and prints, as the last line
// of standard output, the result object the driver reads.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(w, seed, seconds, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, line := range res.Notes {
		fmt.Println(line)
	}
	samples, _ := json.Marshal(res.Samples)
	fmt.Println(samplesPrefix + string(samples))
	fmt.Println(resultLine(res, traced))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// result is the object the driver reads from the last line of standard
// output: correct, attempted, failed, and every declared metric of the
// run's kind with its unit.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(res *runResult, traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{res.Failed == 0, res.Attempted, res.Failed, make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// samplesPrefix starts the line that carries each median's sample
// count from a workload's process to the one printing the table.
const samplesPrefix = "samples "

// hostFacts are recorded beside the numbers.
func hostFacts() map[string]string {
	return map[string]string{
		"nproc":         fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":            runtime.Version(),
		"gogc":          "default (100)",
		"load":          "closed loop, one process; 2 clients on short-query, 1 elsewhere; Workers 1, strategy auto",
		"poll_interval": pollInterval.String() + " sleep between looks at the follower's generation",
		"fsync":         "every append, sandbox page cache: write latency is the sandbox's, not a device's",
	}
}

// child re-executes this binary for one workload, so that each runs in
// a process of its own: the term dictionary is process-wide and would
// otherwise carry one workload's interned terms into the next one's
// heap and latency.
func child(w string, seed int64, seconds float64, traced, quick bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res childResult
	for _, l := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(l, samplesPrefix); ok {
			json.Unmarshal([]byte(rest), &res.Samples)
		} else {
			fmt.Printf("  %s\n", l)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", w, seed, t, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.result); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w, err)
	}
	return &res, nil
}

// childResult is a child's result plus the sample counts it printed.
type childResult struct {
	result
	Samples map[string]int
}

// runAll runs every workload, timed and traced, on `repeat` consecutive
// seeds; prints every metric by name with unit, workload, direction and
// (for repeats) min / median / max and quartile spread; writes the same
// to results.json; and fails if an operation failed or an end-to-end
// spread exceeds its bound.
func runAll(seed int64, seconds float64, quick bool, repeat int) int {
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Better   string    `json:"better"`
		Bound    float64   `json:"bound,omitempty"`
		Values   []float64 `json:"values"`
		Samples  int       `json:"samples_per_value,omitempty"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"quartile_spread"`
	}
	var rows []*row
	index := make(map[string]*row)
	failed := false
	facts := hostFacts()
	for _, k := range sortedKeys(facts) {
		fmt.Printf("host  %-14s %s\n", k, facts[k])
	}
	for i := 0; i < repeat; i++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				fmt.Printf("seed %d  %s  trace=%v\n", seed+int64(i), w.name, traced)
				res, err := child(w.name, seed+int64(i), seconds, traced, quick)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				failed = failed || !res.Correct
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					key := w.name + "\x00" + d.Name
					r := index[key]
					if r == nil {
						r = &row{Workload: w.name, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
						index[key] = r
						rows = append(rows, r)
					}
					r.Values = append(r.Values, res.Metrics[d.Name].Value)
					r.Samples = res.Samples[d.Name]
				}
			}
		}
	}
	fmt.Printf("\n%-20s %-32s %-6s %-7s %7s %14s %14s %14s %8s %6s\n", "workload", "metric", "unit", "better", "samples", "min", "median", "max", "spread", "bound")
	for _, r := range rows {
		r.Median, r.Spread = median(r.Values), quartileSpread(r.Values)
		lo, hi := r.Values[0], r.Values[0]
		for _, v := range r.Values {
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo == 0 && hi == 0 {
			continue // a layer this workload bypasses; results.json keeps the row
		}
		verdict := ""
		// setup_s is bounded on its median only, as in the driver.
		if r.Bound > 0 && r.Metric != "setup_s" && r.Spread > r.Bound {
			verdict = "  SPREAD EXCEEDS BOUND"
			failed = true
		}
		bound := ""
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		samples := ""
		if r.Samples > 0 {
			samples = fmt.Sprint(r.Samples)
		}
		fmt.Printf("%-20s %-32s %-6s %-7s %7s %14.4f %14.4f %14.4f %7.1f%% %6s%s\n",
			r.Workload, r.Metric, r.Unit, r.Better, samples, lo, r.Median, hi, 100*r.Spread, bound, verdict)
	}
	data, _ := json.MarshalIndent(struct {
		Host    map[string]string `json:"host"`
		Seed    int64             `json:"seed"`
		Repeat  int               `json:"repeat"`
		Seconds float64           `json:"seconds"`
		Quick   bool              `json:"quick"`
		Rows    []*row            `json:"rows"`
	}{facts, seed, repeat, seconds, quick, rows}, "", " ")
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, "results.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err == nil {
			fmt.Println("\nwrote", path)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: FAILED: operations failed or a spread exceeded its bound; see above")
		return 1
	}
	return 0
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
