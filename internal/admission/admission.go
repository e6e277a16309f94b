// Package admission implements admission control and load shedding for
// the concurrent serving layer: a counting semaphore bounding how many
// query evaluations run at once, with a bounded FIFO wait queue in
// front of it.
//
// A query that cannot be admitted immediately waits its turn in the
// queue; once the queue itself is full, further queries are shed
// immediately with everr.ErrOverloaded instead of queueing without
// bound — under overload it is better to fail a few callers fast (who
// may retry with backoff) than to let latency and memory grow until
// everything fails slowly. Waiting is context-aware: a caller whose
// context is canceled leaves the queue with everr.ErrCanceled /
// everr.ErrDeadline.
package admission

import (
	"context"
	"sync"
	"time"

	"chainsplit/internal/everr"
	"chainsplit/internal/obsv"
)

// Config sizes a Controller.
type Config struct {
	// MaxConcurrent is how many acquisitions may hold capacity at once
	// (0 = defaultMaxConcurrent, 128; negative admits nothing).
	MaxConcurrent int
	// MaxQueue bounds how many acquisitions may wait for capacity
	// (0 = defaultMaxQueue, 1024; negative = no queue, shed
	// immediately when saturated).
	MaxQueue int
}

// The sizes a zero Config field stands for.
const (
	defaultMaxConcurrent = 128
	defaultMaxQueue      = 1024
)

// Stats is a point-in-time snapshot of controller counters.
type Stats struct {
	// Admitted counts acquisitions granted (immediately or after
	// queueing); Rejected counts sheds with ErrOverloaded; Canceled
	// counts waiters that left the queue on context cancellation.
	Admitted, Rejected, Canceled uint64
	// Queued counts acquisitions that had to wait before being
	// granted.
	Queued uint64
	// QueueWait is the cumulative time granted acquisitions spent
	// waiting; MaxQueueWait is the largest single wait.
	QueueWait, MaxQueueWait time.Duration
	// InFlight and Waiting are the current occupancy and queue length.
	InFlight, Waiting int
}

// Controller is a counting semaphore with a bounded FIFO wait queue.
// The zero value is not usable; call New.
type Controller struct {
	mu       sync.Mutex
	capacity int
	maxQueue int
	inflight int
	queue    []*waiter
	stats    Stats
}

type waiter struct {
	ready   chan struct{}
	granted bool
	since   time.Time
}

// New returns a controller with the given configuration.
func New(cfg Config) *Controller {
	c := &Controller{capacity: cfg.MaxConcurrent, maxQueue: cfg.MaxQueue}
	if c.capacity == 0 {
		c.capacity = defaultMaxConcurrent
	}
	if c.maxQueue == 0 {
		c.maxQueue = defaultMaxQueue
	}
	if c.maxQueue < 0 {
		c.maxQueue = 0
	}
	return c
}

// Acquire obtains one unit of capacity, waiting in FIFO order if the
// controller is saturated. It returns the time spent waiting and a
// release function that must be called exactly once when the work is
// done. On failure the error is one of the everr taxonomy sentinels:
// ErrOverloaded (queue full), ErrCanceled or ErrDeadline (ctx ended
// while waiting).
func (c *Controller) Acquire(ctx context.Context) (wait time.Duration, release func(), err error) {
	if err := everr.Check(ctx); err != nil {
		return 0, nil, err
	}
	c.mu.Lock()
	// Fast path: capacity free and nobody queued ahead of us.
	if len(c.queue) == 0 && c.inflight < c.capacity {
		c.inflight++
		c.stats.Admitted++
		c.mu.Unlock()
		obsv.Admitted.Inc()
		return 0, c.release(), nil
	}
	// Saturated: queue if there is room, shed otherwise. A controller
	// without capacity sheds at once rather than queue forever.
	if len(c.queue) >= c.maxQueue || c.capacity < 1 {
		c.stats.Rejected++
		c.mu.Unlock()
		obsv.Shed.Inc()
		return 0, nil, everr.ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{}), since: time.Now()}
	c.queue = append(c.queue, w)
	c.stats.Queued++
	c.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
		return c.granted(w)
	case <-done:
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; take it and let the
			// caller decide (its context error surfaces on the next
			// engine check anyway).
			c.mu.Unlock()
			return c.granted(w)
		}
		for i, q := range c.queue {
			if q == w {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.stats.Canceled++
		c.mu.Unlock()
		return time.Since(w.since), nil, everr.Check(ctx)
	}
}

// granted finalizes a queued acquisition: records wait statistics and
// hands out the release.
func (c *Controller) granted(w *waiter) (time.Duration, func(), error) {
	wait := time.Since(w.since)
	c.mu.Lock()
	c.stats.Admitted++
	c.stats.QueueWait += wait
	if wait > c.stats.MaxQueueWait {
		c.stats.MaxQueueWait = wait
	}
	c.mu.Unlock()
	obsv.Admitted.Inc()
	return wait, c.release(), nil
}

// release returns the (idempotent) release of one unit.
func (c *Controller) release() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters, strictly in FIFO order, while
// capacity is free.
func (c *Controller) grantLocked() {
	for len(c.queue) > 0 && c.inflight < c.capacity {
		head := c.queue[0]
		c.queue = c.queue[1:]
		c.inflight++
		head.granted = true
		close(head.ready)
	}
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.InFlight = c.inflight
	s.Waiting = len(c.queue)
	return s
}
