// Package memo is the repository's one memo: a singleflight table keyed
// by a comparable value, bounded over time by a generation sweep.
//
// The advisor's per-run memo of what-if estimates (internal/core), the
// fleet's machine-score and point-estimate caches (internal/score) and
// the process-wide calibration cache (internal/calibrate) sit on it.
// Results are deterministic in their key, so a dropped entry recomputes
// to the identical value: the sweep can cost re-runs, never change one.
//
// Entries form a recency list, most recently used first. A hit moves
// its entry to the front and stamps it with the current generation, so
// recency and generation stamps agree along the list: Sweep walks from
// the tail and stops at the first young entry, and Walk takes its order
// from the list.
package memo

import (
	"errors"
	"sync"
)

// errAbandoned is what callers waiting on an entry receive when the run
// that was resolving it panicked.
var errAbandoned = errors.New("memo: evaluation panicked")

// Table memoizes fn results by key. The first Get for a key runs its fn;
// concurrent Gets for that key wait for that one run and share its
// result. A failed run is removed, so errors never stick: the next Get
// for the key runs again. The zero value is ready to use, and a Table
// is safe for concurrent use. A Table must not be copied after first use.
type Table[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[K, V]
	// head is the most recently used entry, tail the least.
	head, tail *entry[K, V]
	gen        int64 // current generation (BeginGeneration advances)
	evictions  int64 // sweep drops
}

// entry is one key's run. val, err and done are written once, under the
// table's mutex, before wg is released; gen and the links are guarded
// by the mutex.
type entry[K comparable, V any] struct {
	key        K
	val        V
	err        error
	done       bool
	wg         sync.WaitGroup // held while the run is in flight
	gen        int64
	prev, next *entry[K, V]
}

// Get returns the value for k, running fn to compute it when no entry
// exists. hit reports whether the entry existed, resolved or still in
// flight; on a miss this caller ran fn. fn is called without the
// table's lock held, so it may use the table.
func (t *Table[K, V]) Get(k K, fn func() (V, error)) (v V, hit bool, err error) {
	t.mu.Lock()
	if e, ok := t.m[k]; ok {
		e.gen = t.gen
		if t.head != e {
			t.unlink(e)
			t.pushFront(e)
		}
		t.mu.Unlock()
		e.wg.Wait()
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: k}
	e.wg.Add(1)
	t.insert(e)
	t.mu.Unlock()

	// The entry is resolved even when fn panics, so no waiter blocks
	// forever on it; the panic then carries on up this caller's stack.
	err = errAbandoned
	defer t.resolve(e, &v, &err)
	v, err = fn()
	return v, false, err
}

// resolve records a run's outcome and releases its waiters. A failed
// run's entry is removed unless a sweep already dropped it (and another
// Get may have inserted a fresh entry under the same key).
func (t *Table[K, V]) resolve(e *entry[K, V], v *V, err *error) {
	t.mu.Lock()
	e.val, e.err, e.done = *v, *err, true
	if e.err != nil && t.m[e.key] == e {
		t.unlink(e)
		delete(t.m, e.key)
	}
	t.mu.Unlock()
	e.wg.Done()
}

// Put inserts v as the resolved value for k, as the most recently used
// entry, unless k is present: priming never overwrites an entry.
func (t *Table[K, V]) Put(k K, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[k]; ok {
		return
	}
	t.insert(&entry[K, V]{key: k, val: v, done: true})
}

// Walk calls fn for every resolved, error-free entry, from least to most
// recently used. Entries still in flight are skipped. The entries are
// collected under the lock and fn runs after it is released, so Walk is
// safe beside concurrent Gets and fn may use the table.
func (t *Table[K, V]) Walk(fn func(k K, v V)) {
	type kv struct {
		k K
		v V
	}
	t.mu.Lock()
	out := make([]kv, 0, len(t.m))
	for e := t.tail; e != nil; e = e.prev {
		if e.done && e.err == nil {
			out = append(out, kv{e.key, e.val})
		}
	}
	t.mu.Unlock()
	for _, p := range out {
		fn(p.k, p.v)
	}
}

// Len reports how many entries the table holds, in-flight ones included.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Evictions counts entries dropped by Sweep.
func (t *Table[K, V]) Evictions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictions
}

// BeginGeneration advances the generation: entries inserted or hit from
// now on are stamped with the new one. A periodic owner (the fleet
// advances one generation per monitoring period) pairs it with Sweep.
func (t *Table[K, V]) BeginGeneration() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
}

// Sweep drops every entry untouched for k or more generations and
// returns how many it dropped (0 for k ≤ 0). Entries the owner keeps
// touching survive any number of sweeps.
func (t *Table[K, V]) Sweep(k int) int {
	if k <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := 0
	for t.tail != nil && t.gen-t.tail.gen >= int64(k) {
		e := t.tail
		t.unlink(e)
		delete(t.m, e.key)
		dropped++
	}
	t.evictions += int64(dropped)
	return dropped
}

// insert adds a new entry, stamped with the current generation, at the
// front of the recency list.
func (t *Table[K, V]) insert(e *entry[K, V]) {
	if t.m == nil {
		t.m = make(map[K]*entry[K, V])
	}
	e.gen = t.gen
	t.m[e.key] = e
	t.pushFront(e)
}

// pushFront links a detached entry in as the most recently used.
func (t *Table[K, V]) pushFront(e *entry[K, V]) {
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// unlink detaches e from the recency list.
func (t *Table[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
