package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is the context an oracle call runs under: the request's
// context bounded by the request's budget. context.WithTimeout would arm
// a timer for every call, yet most calls never wait on one: a warm rrset
// query is a prefix read, and the index substrates poll Err, which only
// compares the clock with the deadline. A real timer is armed by the
// first Done call, for callers that block on the channel. The handler
// calls release once the oracle returns; from then on Done is closed and
// Err reports context.Canceled.
type deadlineCtx struct {
	parent   context.Context
	deadline time.Time
	released atomic.Bool

	mu     sync.Mutex
	timer  context.Context // armed by the first Done
	cancel context.CancelFunc
}

func newDeadlineCtx(parent context.Context, budget time.Duration) *deadlineCtx {
	return &deadlineCtx{parent: parent, deadline: time.Now().Add(budget)}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	if d, ok := c.parent.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timer == nil {
		c.timer, c.cancel = context.WithDeadline(c.parent, c.deadline)
		if c.released.Load() {
			c.cancel()
		}
	}
	return c.timer.Done()
}

func (c *deadlineCtx) Err() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	if c.released.Load() {
		return context.Canceled
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *deadlineCtx) Value(key any) any { return c.parent.Value(key) }

// release ends the call and stops the timer if Done armed one.
func (c *deadlineCtx) release() {
	c.released.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
}
