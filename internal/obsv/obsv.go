// Package obsv is the evaluation observability layer: a low-overhead
// structured trace sink for per-query evaluation events, and a
// process-wide metrics registry with a text snapshot exporter.
//
// The paper's chain-split decisions (Algorithm 3.1) are driven by
// *estimated* join expansion ratios; the pieces in this package are
// what lets the engine report what the ratios and intermediate sizes
// actually were at run time, so a wrong split/follow choice shows up in
// an EXPLAIN ANALYZE report instead of only as slowness.
//
// Tracing is strictly pay-for-what-you-use: a nil *Tracer is the
// disabled tracer, every method on it is a nil-check-and-return, and
// call sites pass only scalars and pre-existing strings — no
// fmt.Sprintf, no allocation — so the hot evaluation paths are
// unchanged when tracing is off.
package obsv

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Phase names the evaluation stage an event belongs to. Phases form
// spans (KindBegin/KindEnd pairs) in the trace, with KindPoint events
// nested inside them.
type Phase uint8

const (
	// PhaseQuery spans one evaluation attempt end to end.
	PhaseQuery Phase = iota + 1
	// PhasePlan spans planning: classification, finiteness, strategy.
	PhasePlan
	// PhaseCompile spans chain compilation and the magic rewrite.
	PhaseCompile
	// PhaseRound marks bottom-up fixpoint rounds (semi-naive).
	PhaseRound
	// PhaseMerge marks the per-round delta merge into full relations.
	PhaseMerge
	// PhaseLevel marks buffered-evaluation levels (Algorithm 3.2).
	PhaseLevel
	// PhaseAnswer marks answer extraction / projection.
	PhaseAnswer
	// PhaseFallback marks a StrategyAuto degradation to semi-naive.
	PhaseFallback
)

var phaseNames = [...]string{
	PhaseQuery:    "query",
	PhasePlan:     "plan",
	PhaseCompile:  "compile",
	PhaseRound:    "round",
	PhaseMerge:    "merge",
	PhaseLevel:    "level",
	PhaseAnswer:   "answer",
	PhaseFallback: "fallback",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Kind distinguishes span boundaries from point events.
type Kind uint8

const (
	// KindBegin opens a phase span.
	KindBegin Kind = iota + 1
	// KindEnd closes a phase span.
	KindEnd
	// KindPoint is an instantaneous event inside a span.
	KindPoint
)

func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindPoint:
		return "point"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured trace record. The numeric payload is
// phase-specific: for PhaseRound/PhaseMerge A is the iteration number
// and B the tuples derived; for PhaseLevel A is the level and B the
// answers found; for KindEnd events B carries the phase's total where
// one exists. Name is the subject — a predicate, SCC, strategy, or
// rule — always a string that existed before the event was emitted.
type Event struct {
	// Seq is the 1-based emission index across the whole trace,
	// including events that were later overwritten in the ring.
	Seq uint64
	// At is the offset from the tracer's start.
	At time.Duration
	// Phase and Kind classify the event.
	Phase Phase
	Kind  Kind
	// Name is the event's subject (predicate, SCC, strategy, rule).
	Name string
	// A and B are phase-specific counters (see type comment).
	A, B int64
}

// String renders the event on one line, stable enough to grep; it is
// the form chainsplitctl -trace prints.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%8.3fms] %-8s %-5s", float64(e.At.Microseconds())/1000.0, e.Phase, e.Kind)
	if e.Name != "" {
		b.WriteByte(' ')
		b.WriteString(e.Name)
	}
	if e.A != 0 || e.B != 0 {
		fmt.Fprintf(&b, " a=%d b=%d", e.A, e.B)
	}
	return b.String()
}

// DefaultTraceCap is the ring capacity used when NewTracer is given a
// non-positive capacity: large enough for the full trace of any of the
// paper's workloads, small enough to bound a divergent query's trace.
const DefaultTraceCap = 4096

// Tracer is a ring-buffered structured trace sink. A nil *Tracer is
// the disabled tracer: every method no-ops without allocating, so
// engines thread one unconditionally and callers pay only when they
// asked for a trace. All methods are safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	buf     []Event
	n       int    // filled slots, <= cap(buf)
	head    int    // next write position
	seq     uint64 // total events ever emitted
	dropped uint64 // events overwritten in the ring
}

// NewTracer returns an enabled tracer with the given ring capacity
// (<= 0 means DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), buf: make([]Event, capacity)}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. On a nil tracer it returns immediately; call
// sites must pass only scalars and pre-existing strings so the
// disabled path stays allocation-free.
func (t *Tracer) Emit(phase Phase, kind Kind, name string, a, b int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev := Event{Seq: t.seq, At: time.Since(t.start), Phase: phase, Kind: kind, Name: name, A: a, B: b}
	if t.n < len(t.buf) {
		t.buf[t.head] = ev
		t.head++
		t.n++
		if t.head == len(t.buf) {
			t.head = 0
		}
	} else {
		t.buf[t.head] = ev
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// Begin emits a span-begin event for phase.
func (t *Tracer) Begin(phase Phase, name string) { t.Emit(phase, KindBegin, name, 0, 0) }

// End emits a span-end event for phase.
func (t *Tracer) End(phase Phase, name string, total int64) {
	t.Emit(phase, KindEnd, name, 0, total)
}

// Point emits an instantaneous event.
func (t *Tracer) Point(phase Phase, name string, a, b int64) {
	t.Emit(phase, KindPoint, name, a, b)
}

// Events returns the recorded events in chronological order (a copy;
// the tracer may keep recording). When the ring overflowed, the oldest
// events are gone — Dropped reports how many.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	if t.n < len(t.buf) {
		out = append(out, t.buf[:t.n]...)
		return out
	}
	out = append(out, t.buf[t.head:]...)
	out = append(out, t.buf[:t.head]...)
	return out
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
