package cluster

// Health-aware read routing: round-robin over the followers the
// per-node circuit breakers consider healthy, shed-and-advance on
// node-attributable failures, and fall back to the leader when every
// follower is dark. Query-attributable failures (an unsafe query
// stays unsafe on every replica) return to the caller immediately —
// re-running a deterministic failure N times would multiply its cost
// and prove nothing about node health.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"chainsplit/internal/everr"
	"chainsplit/internal/obsv"
	"chainsplit/internal/retry"
)

// breakerThreshold is how many consecutive node-attributable failures
// open a node's breaker.
const breakerThreshold = 3

// breakerBackoff shapes a breaker's open intervals: the Nth
// consecutive open stays open for breakerBackoff.Delay(N). Jitter
// matters here for the same reason it does in retry: synchronized
// re-probes of a struggling node are a thundering herd.
var breakerBackoff = retry.Policy{BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.2}

// ReadFunc runs one read attempt against one node.
type ReadFunc func(ctx context.Context, n Node) (any, error)

// Router load-balances reads across a Coordinator's healthy
// followers.
type Router struct {
	coord *Coordinator

	rr atomic.Uint64

	mu       sync.Mutex
	breakers map[string]*breaker
}

// NewRouter returns a router over coord's routing set.
func NewRouter(coord *Coordinator) *Router {
	return &Router{coord: coord, breakers: make(map[string]*breaker)}
}

// Read routes one read: try the healthy followers round-robin, then
// the leader. The first non-node-attributable outcome — success or a
// deterministic query failure — returns immediately; node-attributable
// failures feed the failing node's breaker and advance to the next
// candidate.
func (r *Router) Read(ctx context.Context, f ReadFunc) (any, error) {
	cands := r.healthy(r.coord.Followers())
	leader := r.coord.Leader()
	var firstErr error
	for _, n := range cands {
		v, err, settled := r.attempt(ctx, n, f)
		if settled {
			return v, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	v, err, settled := r.attempt(ctx, leader, f)
	if settled || firstErr == nil {
		return v, err
	}
	// Every candidate failed node-attributably, the leader included
	// (it may be mid-failover). Report the first follower's failure —
	// typically the typed ErrStale the caller can classify.
	return nil, firstErr
}

// healthy filters nodes through their breakers, rotating the start
// position round-robin so load spreads.
func (r *Router) healthy(nodes []Node) []Node {
	if len(nodes) == 0 {
		return nil
	}
	start := int(r.rr.Add(1)-1) % len(nodes)
	now := time.Now()
	out := make([]Node, 0, len(nodes))
	for i := range nodes {
		n := nodes[(start+i)%len(nodes)]
		if r.breakerFor(n.ID()).allow(now) {
			out = append(out, n)
		}
	}
	return out
}

// attempt runs f against n and feeds the outcome to n's breaker. A
// deterministic query failure counts as a SUCCESS for breaker
// purposes: the node answered, the query was the problem. It reports
// (value, error, settled): settled is true for success and for
// query-attributable errors — outcomes further candidates cannot
// improve.
func (r *Router) attempt(ctx context.Context, n Node, f ReadFunc) (v any, err error, settled bool) {
	v, err = f(ctx, n)
	settled = err == nil || !nodeFault(err)
	r.breakerFor(n.ID()).record(settled, time.Now())
	return v, err, settled
}

// breakerFor returns (creating if needed) the breaker for node id.
func (r *Router) breakerFor(id string) *breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[id]
	if b == nil {
		b = &breaker{pol: breakerBackoff, threshold: breakerThreshold}
		r.breakers[id] = b
	}
	return b
}

// nodeFault classifies an error as node-attributable (reroute and
// penalize the node) versus query-attributable (return to the caller;
// every replica would fail the same way). Staleness sheds, overload,
// contained panics, fencing surprises and untyped transport failures
// indict the node; cancellation, deadlines, budgets, unsafe queries
// and plan failures indict the query.
func nodeFault(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, everr.ErrCanceled),
		errors.Is(err, everr.ErrDeadline),
		errors.Is(err, everr.ErrBudget),
		errors.Is(err, everr.ErrUnsafe),
		errors.Is(err, everr.ErrPlan):
		return false
	}
	return true
}

// breaker states. Closed admits everything; open admits nothing until
// its deadline; half-open admits exactly one probe whose outcome
// decides between closed and a longer open.
const (
	stClosed = iota
	stOpen
	stHalfOpen
)

// breaker is a per-node circuit breaker. Open intervals follow the
// breakerBackoff curve keyed by consecutive opens, so a node that
// keeps failing its half-open probes is re-probed at capped
// exponential intervals rather than hammered.
type breaker struct {
	pol       retry.Policy
	threshold int

	mu    sync.Mutex
	state int
	fails int // consecutive failures while closed
	opens int // consecutive open episodes, drives the backoff curve
	until time.Time
}

// allow reports whether an attempt may proceed, transitioning
// open→half-open when the open interval has elapsed. In half-open one
// caller at a time holds the probe slot; everyone else waits for its
// verdict. The slot expires after the same backoff interval that
// opened the breaker: allow is called while LISTING candidates, so a
// read that settles on an earlier node admits a probe that never
// actually runs — without the expiry that unexercised slot would keep
// the breaker half-open (admitting no one) forever, permanently
// excluding the node from routing.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stClosed:
		return true
	case stOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = stHalfOpen
		b.until = now.Add(b.pol.Delay(b.opens))
		obsv.BreakerTransitions.Inc()
		return true
	default: // half-open
		if now.Before(b.until) {
			return false // the probe slot is held, wait for its verdict
		}
		// The admitted probe never reported (the read settled elsewhere,
		// or the prober is stuck past any useful timeout): re-arm the
		// slot and admit the next caller.
		b.until = now.Add(b.pol.Delay(b.opens))
		return true
	}
}

// record feeds one attempt outcome to the breaker.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != stClosed {
			obsv.BreakerTransitions.Inc()
		}
		b.state, b.fails, b.opens = stClosed, 0, 0
		return
	}
	switch b.state {
	case stHalfOpen:
		b.trip(now)
	case stClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip(now)
		}
	case stOpen:
		// A straggler admitted before the trip; the open verdict stands.
	}
}

// trip opens the breaker for the next backoff interval. Callers hold
// b.mu.
func (b *breaker) trip(now time.Time) {
	b.opens++
	b.state = stOpen
	b.fails = 0
	b.until = now.Add(b.pol.Delay(b.opens))
	obsv.BreakerTransitions.Inc()
}
