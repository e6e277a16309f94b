package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestSmoke runs every workload, timed and traced, at quick sizes in
// this process, and checks that no operation fails and that the
// workloads and metrics printed are exactly the ones BENCHMARK.json
// declares — so a renamed or dropped metric fails the tier-1 tests.
func TestSmoke(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from bench/metrics.go:\n%v\n%v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from bench/metrics.go:\n%v\n%v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(decl.Workloads), len(workloads))
	}

	outDir = t.TempDir()
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench has %q", i, d.Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			run, defs := runUntraced, endToEnd
			if traced {
				run, defs = runTraced, perLayer
			}
			res, err := run(&workloads[i], 1, 0.15, quickSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, d := range defs {
				want = append(want, d.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics printed differ from those declared:\n got %v\nwant %v", w.name, traced, got, want)
			}
			if !traced {
				for _, d := range defs {
					// Sharing one process, a later workload finds its
					// terms already interned and may add no heap at all;
					// the benchmark proper runs one workload per process.
					if d.Name == "live_heap_mb" {
						continue
					}
					if res.Metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, res.Metrics[d.Name])
					}
				}
			}
		}
	}
}

// TestQuartileSpread pins the steadiness measure to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
