package score

// bounded is the memory policy shared by the package's caches: a
// string-keyed map with a recency list and a generation sweep for
// long-lived callers.
//
// The sweep bounds staleness over time for callers with a natural epoch
// — the fleet orchestrator advances one generation per monitoring period
// — by dropping every entry untouched for K consecutive generations,
// however large or small the map currently is. Configurations the caller
// stopped visiting (departed tenants, drifted-away workloads) age out;
// the working set it keeps touching survives any number of sweeps. The
// recency list orders entries by last touch: the sweep walks it from the
// tail, and EstimateCache.Export takes its order from it.
//
// Eviction is purely a memory/performance policy: a dropped entry is
// recomputed on its next request and, results being deterministic,
// recomputes to the identical value. Evictions can therefore cost
// re-runs but never change a result.
//
// bounded is not safe for concurrent use; the owning cache's mutex guards
// every call.
type bounded[V any] struct {
	m   map[string]*node[V]
	gen int64 // current generation (beginGeneration advances)
	// head is the most recently used node, tail the least.
	head, tail *node[V]
	evictions  int64 // sweep drops (not explicit removes)
}

// node is one entry with its recency links and last-touched generation.
type node[V any] struct {
	key        string
	val        V
	gen        int64
	prev, next *node[V]
}

func (b *bounded[V]) init() {
	if b.m == nil {
		b.m = make(map[string]*node[V])
	}
}

// unlink detaches n from the recency list.
func (b *bounded[V]) unlink(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront links a detached node in as the most recently used.
func (b *bounded[V]) pushFront(n *node[V]) {
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

// toFront makes a node already in the list the most recently used.
func (b *bounded[V]) toFront(n *node[V]) {
	if b.head == n {
		return
	}
	b.unlink(n)
	b.pushFront(n)
}

// get returns the entry for k, touching it: the node moves to the
// recency front and its generation stamp advances to the current one.
func (b *bounded[V]) get(k string) (V, bool) {
	n, ok := b.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	n.gen = b.gen
	b.toFront(n)
	return n.val, true
}

// put inserts a new entry for k at the recency front (the key must not
// be present).
func (b *bounded[V]) put(k string, v V) {
	b.init()
	n := &node[V]{key: k, val: v, gen: b.gen}
	b.m[k] = n
	b.pushFront(n)
}

// evict removes a node under the eviction counter.
func (b *bounded[V]) evict(n *node[V]) {
	b.unlink(n)
	delete(b.m, n.key)
	b.evictions++
}

// lookup returns the node for k without touching it (nil when absent) —
// the identity-checked removal path for never-cache-errors semantics.
func (b *bounded[V]) lookup(k string) *node[V] { return b.m[k] }

// remove deletes a node outside the eviction counter (an explicit
// removal, such as an errored entry, is not a memory-policy event).
func (b *bounded[V]) remove(n *node[V]) {
	b.unlink(n)
	delete(b.m, n.key)
}

// beginGeneration advances the generation counter. Entries touched from
// now on are stamped with the new generation.
func (b *bounded[V]) beginGeneration() { b.gen++ }

// sweep evicts every entry untouched for k or more generations and
// returns how many were dropped. Touch recency and generation stamps
// agree along the recency list (a touch both front-moves and re-stamps), so
// the scan walks from the tail and stops at the first young entry.
func (b *bounded[V]) sweep(k int) int {
	if k <= 0 {
		return 0
	}
	dropped := 0
	for b.tail != nil && b.gen-b.tail.gen >= int64(k) {
		b.evict(b.tail)
		dropped++
	}
	return dropped
}
