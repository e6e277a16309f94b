package retry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"chainsplit/internal/everr"
)

func TestDefaultRetryableClassification(t *testing.T) {
	wrapped := &everr.EvalError{Strategy: "seminaive", Err: everr.Tag("boom", everr.ErrPanic)}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"overloaded", everr.ErrOverloaded, true},
		{"panic", everr.ErrPanic, true},
		{"wrapped panic", wrapped, true},
		{"canceled", everr.ErrCanceled, false},
		{"deadline", everr.ErrDeadline, false},
		{"budget", everr.ErrBudget, false},
		{"unsafe", everr.ErrUnsafe, false},
		{"plan", everr.ErrPlan, false},
		{"plain", errors.New("nope"), false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		if got := DefaultRetryable(tc.err); got != tc.want {
			t.Errorf("DefaultRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	retries, err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return everr.ErrOverloaded
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Errorf("calls=%d retries=%d err=%v", calls, retries, err)
	}
}

func TestDoStopsOnTerminalError(t *testing.T) {
	for _, terminal := range []error{everr.ErrUnsafe, everr.ErrBudget, everr.ErrCanceled} {
		p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
		calls := 0
		retries, err := p.Do(context.Background(), func() error {
			calls++
			return terminal
		})
		if calls != 1 || retries != 0 || !errors.Is(err, terminal) {
			t.Errorf("%v: calls=%d retries=%d err=%v", terminal, calls, retries, err)
		}
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}
	calls := 0
	retries, err := p.Do(context.Background(), func() error {
		calls++
		return everr.ErrPanic
	})
	if calls != 3 || retries != 2 || !errors.Is(err, everr.ErrPanic) {
		t.Errorf("calls=%d retries=%d err=%v", calls, retries, err)
	}
}

func TestZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	retries, err := Policy{}.Do(context.Background(), func() error {
		calls++
		return everr.ErrOverloaded
	})
	if calls != 1 || retries != 0 || !errors.Is(err, everr.ErrOverloaded) {
		t.Errorf("calls=%d retries=%d err=%v", calls, retries, err)
	}
}

func TestDoHonorsContextDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Hour}
	calls := 0
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	retries, err := p.Do(ctx, func() error {
		calls++
		return everr.ErrOverloaded
	})
	if calls != 1 || retries != 0 {
		t.Errorf("calls=%d retries=%d", calls, retries)
	}
	if !errors.Is(err, everr.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Do slept through cancellation")
	}
}

func TestDelaySchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // retry 1
		20 * time.Millisecond, // retry 2
		40 * time.Millisecond, // retry 3
		40 * time.Millisecond, // retry 4: capped
	}
	for i, w := range want {
		if got := p.delay(i+1, nil); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDelayJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5}
	rng := p.newRand()
	for i := 0; i < 200; i++ {
		d := p.delay(1, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 150ms]", d)
		}
	}
}

func TestSeededJitterIsReproducible(t *testing.T) {
	// Same Seed → identical backoff schedule, call after call; a
	// different seed diverges. This is the regression guard for jitter
	// drawn from the process-global math/rand source, where any other
	// package's draws (or a re-seed) silently changed the schedule and
	// made backoff behavior irreproducible in tests and soaks.
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5, Seed: 42}
	schedule := func(pol Policy) []time.Duration {
		rng := pol.newRand()
		var ds []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			ds = append(ds, pol.delay(attempt, rng))
		}
		return ds
	}
	a, b := schedule(p), schedule(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
	p2 := p
	p2.Seed = 43
	c := schedule(p2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestDoFirstAttemptAllocatesNothing: a call settled by its first
// attempt never sleeps, so it builds no jitter source.
func TestDoFirstAttemptAllocatesNothing(t *testing.T) {
	p := Policy{MaxAttempts: 3, Jitter: 0.5, Seed: 42}
	ctx := context.Background()
	f := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() { p.Do(ctx, f) }); n != 0 {
		t.Fatalf("a first-attempt success allocates %.1f objects, want 0", n)
	}
}

func TestDefaultSeedsAreUnique(t *testing.T) {
	// Zero Seed must not mean "lockstep": two Do calls started in the
	// same clock tick still get distinct jitter streams.
	p := Policy{Jitter: 0.5}
	a, b := p.newRand(), p.newRand()
	diverged := false
	for i := 0; i < 8; i++ {
		if a.Float64() != b.Float64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("two default-seeded generators produced identical streams")
	}
}

func TestCustomRetryable(t *testing.T) {
	sentinel := errors.New("flaky")
	p := Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		Retryable:   func(err error) bool { return errors.Is(err, sentinel) },
	}
	calls := 0
	_, err := p.Do(context.Background(), func() error {
		calls++
		return sentinel
	})
	if calls != 3 || !errors.Is(err, sentinel) {
		t.Errorf("calls=%d err=%v", calls, err)
	}
}

// TestConcurrentDoSharedPolicy hammers one shared Policy value from
// many goroutines at once — the replication layer does exactly this
// (every follower session retries through its session's Policy), so Do
// must be safe for concurrent use without any external locking, with
// per-call attempt counts and backoff schedules that never interfere.
func TestConcurrentDoSharedPolicy(t *testing.T) {
	sentinel := errors.New("flaky")
	shared := Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    50 * time.Microsecond,
		Jitter:      0.5,
		Retryable:   func(err error) bool { return errors.Is(err, sentinel) },
	}
	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Each call fails a per-call number of times, then
				// succeeds; the retries count Do reports must match
				// this call's schedule exactly, untouched by the other
				// goroutines retrying through the same Policy.
				wantFails := (w + i) % shared.MaxAttempts
				calls := 0
				retries, err := shared.Do(context.Background(), func() error {
					if calls++; calls <= wantFails {
						return sentinel
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if retries != wantFails || calls != wantFails+1 {
					t.Errorf("worker %d call %d: retries=%d calls=%d, want %d fails",
						w, i, retries, calls, wantFails)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentDoSeeded: a nonzero Seed must stay reproducible per Do
// call even when calls run concurrently (each call gets its own
// generator; none shares rng state).
func TestConcurrentDoSeeded(t *testing.T) {
	sentinel := errors.New("flaky")
	p := Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		Jitter:      0.9,
		Seed:        42,
		Retryable:   func(err error) bool { return errors.Is(err, sentinel) },
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			retries, err := p.Do(context.Background(), func() error { return sentinel })
			if !errors.Is(err, sentinel) || retries != 2 {
				t.Errorf("retries=%d err=%v", retries, err)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentDoCancellation: canceling the context interrupts
// sleeping retriers promptly even under concurrency.
func TestConcurrentDoCancellation(t *testing.T) {
	sentinel := errors.New("flaky")
	p := Policy{
		MaxAttempts: 1 << 30,
		BaseDelay:   time.Hour, // sleep forever unless cancellation interrupts
		Retryable:   func(err error) bool { return true },
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Do(ctx, func() error { return sentinel })
			// The attempt error is kept (the caller cares what failed,
			// not that the retry loop was interrupted).
			if !errors.Is(err, sentinel) && !errors.Is(err, context.Canceled) &&
				!errors.Is(err, everr.ErrCanceled) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt sleeping retriers")
	}
}
