// Package memo holds the repository's two caching mechanisms: LRU, a
// byte-budget least-recently-used map, and Flight, a single-flight group
// that coalesces concurrent work for one key. Every cache builds on them:
// the artifact store's disk index and memory tier, the measurement cache,
// and the cluster router's request coalescing.
package memo

// LRU is a byte-budget least-recently-used map. Each entry carries a
// caller-supplied size; after an Add the least recently used entries are
// evicted until the total fits the budget, except that the most recently
// used entry is never evicted, so a single oversized value still caches.
//
// An LRU is not safe for concurrent use: callers hold their own lock.
type LRU[K comparable, V any] struct {
	budget     int64
	onEvict    func(K, V)
	items      map[K]*entry[K, V]
	head, tail *entry[K, V] // head = most recently used
	bytes      int64
	evictions  uint64
}

// entry is one value, threaded on the recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// NewLRU returns an empty LRU bounded to budget bytes. onEvict, when
// non-nil, is called with each entry the budget evicts, oldest first; it
// is not called for Remove.
func NewLRU[K comparable, V any](budget int64, onEvict func(K, V)) *LRU[K, V] {
	return &LRU[K, V]{budget: budget, onEvict: onEvict, items: make(map[K]*entry[K, V])}
}

// Get returns the value under key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	e, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveFront(e)
	return e.val, true
}

// Add stores val under key with the given size as the most recently used
// entry, replacing any previous value, then evicts down to the budget.
func (l *LRU[K, V]) Add(key K, val V, size int64) {
	if e, ok := l.items[key]; ok {
		l.bytes += size - e.size
		e.val, e.size = val, size
		l.moveFront(e)
	} else {
		e := &entry[K, V]{key: key, val: val, size: size}
		l.items[key] = e
		l.pushFront(e)
		l.bytes += size
	}
	l.evict()
}

// Remove deletes the entry under key, if present.
func (l *LRU[K, V]) Remove(key K) {
	if e, ok := l.items[key]; ok {
		l.unlink(e)
		delete(l.items, key)
		l.bytes -= e.size
	}
}

// SetBudget changes the byte budget, evicting at once if the entries
// already exceed it.
func (l *LRU[K, V]) SetBudget(budget int64) {
	l.budget = budget
	l.evict()
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.items) }

// Bytes returns the sum of the entries' sizes.
func (l *LRU[K, V]) Bytes() int64 { return l.bytes }

// Evictions returns how many entries the budget has evicted.
func (l *LRU[K, V]) Evictions() uint64 { return l.evictions }

// evict drops least-recently-used entries until the total fits the
// budget, keeping the most recently used entry whatever its size.
func (l *LRU[K, V]) evict() {
	for l.bytes > l.budget && l.tail != l.head {
		e := l.tail
		l.Remove(e.key)
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(e.key, e.val)
		}
	}
}

func (l *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *LRU[K, V]) moveFront(e *entry[K, V]) {
	if l.head != e {
		l.unlink(e)
		l.pushFront(e)
	}
}
