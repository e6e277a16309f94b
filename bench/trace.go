package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function (spans inside the program are a later
// issue). Spans of one replayed operation share Op; Parent is the ID of
// the enclosing span, -1 for the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// It is used from one goroutine: the replay is single-client.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	kinds []string // operation kind (the root span's name) per operation
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// do runs f inside a span named name, nested under the open span.
func (t *tracer) do(name string, f func()) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].Start, t.spans[id].End = int64(start), int64(end)
}

// opSpan runs f as the root span of a new operation of the given kind.
func (t *tracer) opSpan(kind string, f func()) {
	t.op++
	t.kinds = append(t.kinds, kind)
	t.do(kind, f)
}

// selfTimes returns, for operations of one kind, one value per
// operation and span name: the summed self time (duration minus the
// part its child spans cover) of that name's spans in the operation.
func (t *tracer) selfTimes(kind string) map[string][]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int
	}
	sum := make(map[key]int64)
	var order []key
	for _, s := range t.spans {
		if t.kinds[s.Op] != kind {
			continue
		}
		k := key{s.Name, s.Op}
		if _, seen := sum[k]; !seen {
			order = append(order, k)
		}
		sum[k] += s.End - s.Start - child[s.ID]
	}
	out := make(map[string][]time.Duration)
	for _, k := range order {
		out[k.name] = append(out[k.name], time.Duration(sum[k]))
	}
	return out
}

// stageSums returns, for each operation of the given kind, the summed
// duration of the layer spans directly under its root span: the part of
// the replayed operation's time that the layers account for.
func (t *tracer) stageSums(kind string) []time.Duration {
	sums := make(map[int]int64)
	var order []int
	for _, s := range t.spans {
		if s.Parent < 0 || t.spans[s.Parent].Parent >= 0 || t.kinds[s.Op] != kind {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		sums[s.Op] += s.End - s.Start
	}
	out := make([]time.Duration, len(order))
	for i, op := range order {
		out[i] = time.Duration(sums[op])
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
