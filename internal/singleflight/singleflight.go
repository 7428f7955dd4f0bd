// Package singleflight holds the mutex-guarded, singleflight-style memo
// cache the sweep runner and the sweep server share. The first caller of Do
// for a key runs the computation; concurrent callers of the same key block
// until it finishes and share its result, so every key is computed exactly
// once even when many workers ask for it at the same time. Distinct keys
// compute concurrently — the lock only guards the entry map, never a
// computation.
//
// Only successes stay cached. A failed computation delivers its error to
// the callers already waiting on the entry, then forgets the key, so a
// retry (an engine's bounded-retry loop, a resumed run, or a resubmitted
// server job) computes it again instead of replaying a transient failure
// forever.
package singleflight

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Memo is the cache; build one with New.
type Memo[V any] struct {
	mu       sync.Mutex
	entries  map[string]*entry[V]
	computes atomic.Int64
}

type entry[V any] struct {
	ready chan struct{} // closed once val/err are set
	val   V
	err   error
}

// New builds an empty Memo.
func New[V any]() *Memo[V] {
	return &Memo[V]{entries: make(map[string]*entry[V])}
}

// Do returns the value for key, running compute if no caller has before.
// A panic inside compute is converted to an error carrying the panic stack
// (and delivered to every waiter) so a failed computation can never strand
// goroutines blocked on the entry, and a crashing computation is diagnosable
// from the caller's log.
func (m *Memo[V]) Do(key string, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &entry[V]{ready: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	m.computes.Add(1)
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("singleflight: computing %s: panic: %v\n%s", key, p, debug.Stack())
			}
			close(e.ready)
		}()
		e.val, e.err = compute()
	}()
	if e.err != nil {
		// Forget failures so a later attempt recomputes. Guarded: a slow
		// failure must not evict a newer entry someone else inserted.
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

// Prime inserts an already-computed value for key (checkpoint resume),
// unless the key is present. Primed entries do not count as computations.
func (m *Memo[V]) Prime(key string, val V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	e := &entry[V]{ready: make(chan struct{}), val: val}
	close(e.ready)
	m.entries[key] = e
}

// Computes reports how many computations actually ran (cache hits,
// singleflight waiters and primed entries do not count); the concurrency
// tests — and the server's exactly-once accounting — use it to prove each
// key is computed once.
func (m *Memo[V]) Computes() int64 { return m.computes.Load() }

// Has reports whether key is present (computed, computing, or primed)
// without blocking on an in-flight computation. Planners use it to skip
// work that is already done or claimed; a false answer is only a hint —
// another caller may insert the key immediately after.
func (m *Memo[V]) Has(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// Len reports how many keys are cached.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
