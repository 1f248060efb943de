package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// keys returns the LRU's keys, most recently used first.
func keys[K comparable, V any](l *LRU[K, V]) []K {
	var out []K
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func TestLRUOrder(t *testing.T) {
	l := NewLRU[string, int](100, nil)
	l.Add("a", 1, 10)
	l.Add("b", 2, 10)
	l.Add("c", 3, 10)
	if got, want := keys(l), []string{"c", "b", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v; want %v", got, want)
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if got, want := keys(l), []string{"a", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Get(a) order = %v; want %v", got, want)
	}
	if _, ok := l.Get("zz"); ok {
		t.Fatal("Get of an absent key hit")
	}
	if l.Len() != 3 || l.Bytes() != 30 || l.Evictions() != 0 {
		t.Fatalf("len %d, bytes %d, evictions %d", l.Len(), l.Bytes(), l.Evictions())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	var evicted []string
	l := NewLRU(30, func(k string, v int) { evicted = append(evicted, fmt.Sprint(k, "=", v)) })
	l.Add("a", 1, 10)
	l.Add("b", 2, 10)
	l.Add("c", 3, 10)
	l.Get("a")        // b is now the least recently used
	l.Add("d", 4, 20) // needs 20 bytes: evicts b, then c
	if want := []string{"b=2", "c=3"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("callback order = %v; want %v", evicted, want)
	}
	if got, want := keys(l), []string{"d", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors = %v; want %v", got, want)
	}
	if l.Bytes() != 30 || l.Evictions() != 2 {
		t.Fatalf("bytes %d, evictions %d; want 30, 2", l.Bytes(), l.Evictions())
	}
}

// TestLRUKeepsNewest: an entry larger than the whole budget still caches
// (alone), and shrinking the budget keeps the most recently used entry.
func TestLRUKeepsNewest(t *testing.T) {
	l := NewLRU[string, int](10, nil)
	l.Add("a", 1, 5)
	l.Add("big", 2, 50)
	if got, want := keys(l), []string{"big"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after oversized Add = %v; want %v", got, want)
	}
	if l.Bytes() != 50 {
		t.Fatalf("bytes = %d; want 50", l.Bytes())
	}
	l.Add("c", 3, 5) // the oversized entry is no longer the newest
	if got, want := keys(l), []string{"c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after next Add = %v; want %v", got, want)
	}

	l.Add("d", 4, 5)
	l.SetBudget(1)
	if got, want := keys(l), []string{"d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after SetBudget(1) = %v; want %v", got, want)
	}
}

// TestLRUReAddResizes: re-adding a key replaces its value, moves it to the
// front, and adjusts the byte total by the size difference, evicting
// others when it grows.
func TestLRUReAddResizes(t *testing.T) {
	l := NewLRU[string, string](30, nil)
	l.Add("a", "a1", 10)
	l.Add("b", "b1", 10)
	l.Add("a", "a2", 4)
	if v, _ := l.Get("a"); v != "a2" || l.Bytes() != 14 || l.Len() != 2 {
		t.Fatalf("after shrink: a=%q bytes=%d len=%d", v, l.Bytes(), l.Len())
	}
	l.Add("b", "b2", 26)
	if l.Bytes() != 30 || l.Evictions() != 0 {
		t.Fatalf("after grow to fit: bytes=%d evictions=%d", l.Bytes(), l.Evictions())
	}
	l.Add("b", "b3", 28) // no longer fits beside a
	if got, want := keys(l), []string{"b"}; !reflect.DeepEqual(got, want) || l.Bytes() != 28 {
		t.Fatalf("after grow past budget: %v, %d bytes", got, l.Bytes())
	}
}

func TestLRURemove(t *testing.T) {
	calls := 0
	l := NewLRU(100, func(string, int) { calls++ })
	l.Add("a", 1, 10)
	l.Add("b", 2, 20)
	l.Add("c", 3, 30)
	l.Remove("b")
	l.Remove("b") // absent: no effect
	if got, want := keys(l), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Remove = %v; want %v", got, want)
	}
	if l.Len() != 2 || l.Bytes() != 40 || l.Evictions() != 0 || calls != 0 {
		t.Fatalf("len %d, bytes %d, evictions %d, callbacks %d", l.Len(), l.Bytes(), l.Evictions(), calls)
	}
	l.Remove("c")
	l.Remove("a")
	if l.head != nil || l.tail != nil || l.Bytes() != 0 {
		t.Fatal("empty LRU keeps list links or bytes")
	}
}

func TestFlightLeaderFlag(t *testing.T) {
	var g Flight[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		v      int
		leader bool
	}
	leaderOut := make(chan result, 1)
	go func() {
		v, leader, _ := g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		leaderOut <- result{v, leader}
	}()
	<-started

	const followers = 4
	var ran atomic.Int64
	outs := make(chan result, followers)
	for i := 0; i < followers; i++ {
		go func() {
			v, leader, _ := g.Do(context.Background(), "k", func() (int, error) {
				ran.Add(1)
				return 7, nil
			})
			outs <- result{v, leader}
		}()
	}
	waitWaiters(t, &g, "k", followers)
	close(release)

	if r := <-leaderOut; !r.leader || r.v != 42 {
		t.Fatalf("leader got %+v", r)
	}
	for i := 0; i < followers; i++ {
		if r := <-outs; r.leader || r.v != 42 {
			t.Fatalf("follower got %+v; want the leader's 42, leader=false", r)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("a follower's fn ran %d times", ran.Load())
	}
	// With nothing in flight the next caller leads.
	if v, leader, _ := g.Do(context.Background(), "k", func() (int, error) { return 9, nil }); !leader || v != 9 {
		t.Fatalf("after the flight: %d, leader=%v", v, leader)
	}
}

// TestFlightFollowerRetriesOnLeaderCancel: the leader's context error does
// not reach a follower whose own context is live (it leads a retry), but
// does reach a follower whose context is also done, and a non-context
// error reaches every follower.
func TestFlightFollowerRetriesOnLeaderCancel(t *testing.T) {
	for _, tc := range []struct {
		name       string
		leaderErr  error
		followerOK bool // follower's context still live
		wantRetry  bool
	}{
		{"canceled, follower live", fmt.Errorf("upstream: %w", context.Canceled), true, true},
		{"deadline, follower live", context.DeadlineExceeded, true, true},
		{"canceled, follower done too", context.Canceled, false, false},
		{"other error", errors.New("boom"), true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g Flight[string, string]
			started := make(chan struct{})
			release := make(chan struct{})
			go func() {
				_, _, _ = g.Do(context.Background(), "k", func() (string, error) {
					close(started)
					<-release
					return "", tc.leaderErr
				})
			}()
			<-started
			fctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if !tc.followerOK {
				cancel()
			}
			type result struct {
				v      string
				leader bool
				err    error
			}
			out := make(chan result, 1)
			go func() {
				v, leader, err := g.Do(fctx, "k", func() (string, error) { return "retried", nil })
				out <- result{v, leader, err}
			}()
			waitWaiters(t, &g, "k", 1)
			close(release)
			r := <-out
			if tc.wantRetry {
				if r.err != nil || r.v != "retried" || !r.leader {
					t.Fatalf("follower = %+v; want its own retried result as leader", r)
				}
				return
			}
			if !errors.Is(r.err, tc.leaderErr) || r.leader {
				t.Fatalf("follower = %+v; want the leader's error %v", r, tc.leaderErr)
			}
		})
	}
}

// waitWaiters blocks until n followers have joined the in-flight call
// for key.
func waitWaiters[K comparable, V any](t *testing.T, g *Flight[K, V], key K, n int) {
	t.Helper()
	for {
		g.mu.Lock()
		joined := 0
		if c := g.calls[key]; c != nil {
			joined = c.followers
		}
		g.mu.Unlock()
		if joined >= n {
			return
		}
		runtime.Gosched()
	}
}
