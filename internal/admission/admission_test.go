package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"chainsplit/internal/everr"
)

func TestAcquireFastPath(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, MaxQueue: 4})
	wait, rel1, err := c.Acquire(context.Background())
	if err != nil || wait != 0 {
		t.Fatalf("first acquire: wait=%v err=%v", wait, err)
	}
	_, rel2, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	s := c.Stats()
	if s.InFlight != 2 || s.Admitted != 2 || s.Queued != 0 {
		t.Errorf("stats = %+v", s)
	}
	rel1()
	rel1() // release is idempotent
	rel2()
	if s := c.Stats(); s.InFlight != 0 {
		t.Errorf("inflight after release = %d", s.InFlight)
	}
}

func TestOverflowShedsWithOverloaded(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: -1}) // no queue at all
	_, rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, _, err = c.Acquire(context.Background())
	if !errors.Is(err, everr.ErrOverloaded) {
		t.Fatalf("saturated acquire err = %v, want ErrOverloaded", err)
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Errorf("rejected = %d", s.Rejected)
	}
	// A controller without capacity sheds at once rather than queue a
	// caller it can never admit.
	if _, _, err := New(Config{MaxConcurrent: -1}).Acquire(context.Background()); !errors.Is(err, everr.ErrOverloaded) {
		t.Fatalf("capacity-less acquire err = %v, want ErrOverloaded", err)
	}
}

func TestQueueFIFOOrdering(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	_, rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r()
		}()
		// Wait until this goroutine is actually queued before starting
		// the next, so enqueue order matches i.
		waitFor(t, func() bool { return c.Stats().Waiting == i+1 })
	}
	rel()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestCancelWhileQueued(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	_, rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Acquire(ctx)
		done <- err
	}()
	waitFor(t, func() bool { return c.Stats().Waiting == 1 })
	cancel()
	if err := <-done; !errors.Is(err, everr.ErrCanceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled", err)
	}
	s := c.Stats()
	if s.Waiting != 0 || s.Canceled != 1 {
		t.Errorf("stats after cancel = %+v", s)
	}
}

func TestDeadlineWhileQueued(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	_, rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err = c.Acquire(ctx)
	if !errors.Is(err, everr.ErrDeadline) {
		t.Fatalf("timed-out waiter err = %v, want ErrDeadline", err)
	}
}

func TestQueuedGrantRecordsWait(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 2})
	_, rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	type grant struct {
		wait time.Duration
		err  error
	}
	done := make(chan grant, 1)
	go func() {
		wait, r, err := c.Acquire(context.Background())
		if err == nil {
			r()
		}
		done <- grant{wait, err}
	}()
	waitFor(t, func() bool { return c.Stats().Waiting == 1 })
	time.Sleep(5 * time.Millisecond)
	rel()
	g := <-done
	if g.err != nil {
		t.Fatal(g.err)
	}
	if g.wait <= 0 {
		t.Errorf("queued grant reported wait %v, want > 0", g.wait)
	}
	s := c.Stats()
	if s.QueueWait <= 0 || s.MaxQueueWait <= 0 {
		t.Errorf("stats wait not recorded: %+v", s)
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if c.capacity != defaultMaxConcurrent || c.maxQueue != defaultMaxQueue {
		t.Errorf("defaults = %d/%d", c.capacity, c.maxQueue)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
