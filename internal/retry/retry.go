// Package retry implements capped exponential backoff with jitter for
// transient evaluation failures.
//
// Only two causes in the everr taxonomy are transient: ErrOverloaded
// (admission control shed the query; capacity frees up as in-flight
// queries finish) and ErrPanic (a contained internal fault, e.g. one
// injected by faultinject, that a re-run may not hit). Everything else
// is deterministic — a canceled context stays canceled, an unsafe
// query stays unsafe, a budget blown once blows again — so retrying
// would only triple the latency of the same failure. DefaultRetryable
// encodes exactly that split.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"chainsplit/internal/everr"
)

// seedCounter disambiguates the default seeds of Do calls that start
// within the same clock tick.
var seedCounter atomic.Int64

// Policy configures Do. The zero value means "no retries": a single
// attempt, no backoff — so plumbing a Policy through existing code
// changes nothing until a caller opts in.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1 means exactly one attempt, i.e. retries disabled).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay. Defaults to 10ms when
	// retries are enabled but BaseDelay is zero.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 1s).
	MaxDelay time.Duration
	// Jitter, in [0,1], randomizes each delay to delay*(1±Jitter) so
	// shed queries don't retry in lockstep and overload the server
	// again in a synchronized wave.
	Jitter float64
	// Seed seeds the jitter's random source. Each Do call draws its
	// jitter from its own generator — never from the process-global
	// math/rand source, whose stream any other package could perturb
	// (or re-seed) and whose lock every retrier would contend on. Zero
	// means a unique seed per Do call; set it for reproducible backoff
	// schedules in tests and soak harnesses.
	Seed int64
	// Retryable decides whether an error is worth another attempt;
	// nil means DefaultRetryable.
	Retryable func(error) bool
}

// DefaultRetryable reports whether err is one of the two transient
// causes (ErrOverloaded, ErrPanic). All other causes — cancellation,
// deadline, budget, unsafe, plan — are deterministic and not retried.
func DefaultRetryable(err error) bool {
	return errors.Is(err, everr.ErrOverloaded) || errors.Is(err, everr.ErrPanic)
}

// Do runs f until it succeeds, fails with a non-retryable error, or
// the policy's attempts are exhausted, sleeping the backoff schedule
// between attempts. It returns the number of retries performed (0 if
// the first attempt settled it) alongside f's final error. The sleep
// is context-aware: if ctx ends mid-backoff, Do returns the ctx cause
// (via everr.Check) rather than the stale attempt error.
func (p Policy) Do(ctx context.Context, f func() error) (retries int, err error) {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = DefaultRetryable
	}
	// The jitter source is built at the first sleep: seeding one
	// allocates kilobytes, and most calls settle on their first attempt.
	var rng *rand.Rand
	for attempt := 1; ; attempt++ {
		err = f()
		if err == nil || attempt >= attempts || !retryable(err) {
			return attempt - 1, err
		}
		if rng == nil && p.Jitter > 0 {
			rng = p.newRand()
		}
		if serr := sleep(ctx, p.delay(attempt, rng)); serr != nil {
			return attempt - 1, serr
		}
	}
}

// newRand returns the jitter source for one Do call: seeded from
// Policy.Seed when set, uniquely otherwise. The generator is private
// to the call (Do draws from it sequentially), so it needs no lock and
// its stream cannot be perturbed by other goroutines the way the
// process-global math/rand source can.
func (p Policy) newRand() *rand.Rand {
	seed := p.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() + seedCounter.Add(1)
	}
	return rand.New(rand.NewSource(seed))
}

// Delay returns the backoff the policy would sleep before retry number
// attempt (1-based): BaseDelay doubled attempt-1 times, capped at
// MaxDelay, jittered. It lets other backoff consumers — the cluster
// router's circuit breaker sizes its open intervals with it — share
// one schedule definition instead of re-deriving the curve.
func (p Policy) Delay(attempt int) time.Duration { return p.delay(attempt, nil) }

// delay returns the backoff before retry number attempt (1-based):
// BaseDelay doubled attempt-1 times, capped at MaxDelay, jittered from
// rng (which may be nil when Jitter is zero).
func (p Policy) delay(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		// Scale by a uniform factor in [1-j, 1+j].
		if rng == nil {
			rng = p.newRand()
		}
		d = time.Duration(float64(d) * (1 - j + 2*j*rng.Float64()))
	}
	return d
}

// sleep waits d or until ctx ends, whichever comes first, translating
// an early end through the everr taxonomy.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return everr.Check(ctx)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return everr.Check(ctx)
	}
}
