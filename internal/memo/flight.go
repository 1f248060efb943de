package memo

import (
	"context"
	"errors"
	"sync"
)

// Flight coalesces concurrent work for equal keys: the first caller of Do
// for a key becomes the leader and runs its fn; callers arriving while
// the leader is in flight wait and share the leader's result. The zero
// value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done      chan struct{}
	val       V
	err       error
	followers int // callers that joined, guarded by Flight.mu; lets tests wait for them
}

// Do runs fn for key unless a call for key is already in flight, in which
// case it waits for that call's result. leader reports whether this
// caller's fn ran. Followers share the leader's value, so it must be
// treated as immutable.
//
// A leader's fn typically runs under the leader's own context. When the
// shared result is a context error (context.Canceled or
// context.DeadlineExceeded) but ctx, the follower's context, is still
// live, the follower does not inherit the leader's cancellation: it
// retries, becoming the new leader or joining a newer flight.
func (g *Flight[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, leader bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[K]*call[V])
		}
		c, ok := g.calls[key]
		if !ok {
			break
		}
		c.followers++
		g.mu.Unlock()
		<-c.done
		if isContextErr(c.err) && ctx.Err() == nil {
			continue
		}
		return c.val, false, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, true, c.err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
