package engine

import (
	"sync"

	"dmcs/internal/dmcs"
)

// resultCache is a hash-sharded LRU keyed by the normalized query key
// (component identity + component version + sorted deduplicated node set
// + algorithm variant + result-shaping options). Only complete results
// are stored — timed-out or cancelled searches return whatever was
// peeled so far, which depends on wall-clock time, so caching them would
// leak nondeterminism into later queries.
//
// Sharding is the cache's concurrency story: the key's FNV-1a hash picks
// one of a power-of-two number of shards (sized to at least the engine's
// parallelism), and each shard has its own mutex, so concurrent hits on
// different keys proceed without contending on any global lock.
// Component-version keying makes this safe under mutation without any
// cross-shard coordination: Apply never needs to atomically invalidate
// the cache, because a touched component gets a fresh version record
// (a new identity) and entries of the superseded one can no longer match
// any fresh-path lookup — while a component the Apply did not touch keeps
// its record, so its entries keep matching, which is the whole point of
// component-scoped epochs (see the package doc).
//
// Within a shard the LRU is array-backed and intrusive: entries live in
// one slab indexed by int32, with prev/next links stored inline. Compared to the previous
// container/list implementation this eliminates the per-entry
// list.Element allocation and the pointer chase per touch — a hit is a
// map probe plus two slab index updates on memory the shard owns
// contiguously. Note the slab deliberately trades away the earlier
// design's never-rewrite-a-published-entry invariant: slots are
// recycled on eviction and overwritten on key replacement, so readers
// MUST hold the shard mutex — lock-free slot reads are not an available
// next step without reintroducing per-entry boxing. The shared
// *dmcs.Result values themselves stay immutable, which is what lets a
// hit hand the pointer out beyond the critical section.
//
// Each shard also anchors the singleflight table for its keys (see
// flight.go): in-flight computations and cached results are checked and
// published under the same shard lock, so a completed flight transitions
// into a cache entry with no window in which a concurrent miss could
// start a duplicate computation.
type resultCache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShard is one lock's worth of the cache. The trailing pad keeps
// neighbouring shards' hot fields off one cache line when the shard
// slab is iterated by independent cores.
type cacheShard struct {
	//dmcs:striped
	mu sync.Mutex
	//dmcs:keyed
	byKey   map[string]int32
	entries []cacheEntry // slab; prev/next links are slab indices
	head    int32        // most recently used; -1 when empty
	tail    int32        // least recently used; -1 when empty
	cap     int32        // max entries this shard holds
	//dmcs:keyed
	flights map[string]*flight
	_       [64]byte
}

// cacheEntry is one slab slot. wire is the entry's answer as the
// caller of SearchEncoded put it on its wire: nil until the entry's first
// hit through SearchEncoded, immutable once attached, and dropped with
// res — when the key's result is replaced and when eviction recycles the
// slot — so the encoded bytes live under the cache's one
// eviction policy and one capacity bound. An entry that has been hit
// therefore costs its Result plus about one response body.
type cacheEntry struct {
	key        string
	res        *dmcs.Result
	wire       []byte
	prev, next int32
}

// FNV-1a constants; the key hash that picks a shard.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey is allocation-free FNV-1a over the key bytes.
func hashKey(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newResultCache builds a cache of at most capacity entries spread over
// a power-of-two number of shards. capacity <= 0 disables caching (nil
// cache; every method no-ops). The shard count starts at
// nextPow2(shards) and is halved until shards <= capacity, so the total
// never exceeds the configured capacity — a tiny cache on a many-core
// machine trades shard count for its capacity contract, not the other
// way around.
func newResultCache(capacity, shards int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	n := nextPow2(max(1, shards))
	for n > capacity {
		n >>= 1
	}
	perShard := capacity / n
	c := &resultCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.byKey = make(map[string]int32, perShard)
		s.head, s.tail = -1, -1
		s.cap = int32(perShard)
	}
	return c
}

// shardFor returns the shard owning hash h.
func (c *resultCache) shardFor(h uint64) *cacheShard {
	// xor-fold the high bits in so shard choice uses the whole hash, not
	// just the low bits FNV mixes least.
	return &c.shards[(h^(h>>32))&c.mask]
}

// get returns the cached result for key, promoting it to most recently
// used in its shard. The result is shared — callers must treat it as
// immutable. The key is a byte view (usually a recycled worker buffer):
// the map lookup uses Go's string([]byte)-index optimization, so a cache
// hit performs no allocation and no channel operation — just one shard
// mutex.
//
//dmcs:keyed key
func (c *resultCache) get(h uint64, key []byte) (*dmcs.Result, bool) {
	res, _, ok := c.probe(h, key)
	return res, ok
}

// probe is get that also returns the entry's attached encoding (nil when
// none is attached yet). Both values are read under one hold of the shard
// lock, so the bytes always belong to the returned result.
//
//dmcs:hotpath
//dmcs:keyed key
func (c *resultCache) probe(h uint64, key []byte) (*dmcs.Result, []byte, bool) {
	if c == nil {
		return nil, nil, false
	}
	s := c.shardFor(h)
	s.mu.Lock()
	// Inline map probe: the direct m[string(b)] expression is what keeps
	// the conversion allocation-free on the hit path.
	i, ok := s.byKey[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil, nil, false
	}
	s.moveToFrontLocked(i)
	e := &s.entries[i]
	res, wire := e.res, e.wire
	s.mu.Unlock()
	return res, wire, true
}

// attach stores wire as the encoding of key's entry iff the entry still
// holds res and has no encoding yet: a key whose result was replaced, or
// a slot eviction recycled, between the caller's probe and now must not
// pick up bytes made from the earlier result. wire must not be modified
// afterwards.
//
//dmcs:keyed key
func (c *resultCache) attach(h uint64, key []byte, res *dmcs.Result, wire []byte) {
	s := c.shardFor(h)
	s.mu.Lock()
	if i, ok := s.byKey[string(key)]; ok {
		if e := &s.entries[i]; e.res == res && e.wire == nil {
			e.wire = wire
		}
	}
	s.mu.Unlock()
}

// add stores res under a copy of key, evicting the shard's least
// recently used entry when the shard is full.
//
//dmcs:keyed key
func (c *resultCache) add(h uint64, key []byte, res *dmcs.Result) {
	if c == nil {
		return
	}
	s := c.shardFor(h)
	s.mu.Lock()
	s.addLocked(string(key), res)
	s.mu.Unlock()
}

// addLocked inserts or replaces key's entry. Only this path materializes
// key strings; flight publication passes an already-built string.
//
//dmcs:keyed key
func (s *cacheShard) addLocked(key string, res *dmcs.Result) {
	if i, ok := s.byKey[key]; ok {
		s.entries[i].res, s.entries[i].wire = res, nil
		s.moveToFrontLocked(i)
		return
	}
	var i int32
	if int32(len(s.entries)) < s.cap {
		s.entries = append(s.entries, cacheEntry{})
		i = int32(len(s.entries) - 1)
	} else {
		// Recycle the LRU slot in place: no allocation.
		i = s.tail
		s.detachLocked(i)
		delete(s.byKey, s.entries[i].key)
	}
	s.entries[i] = cacheEntry{key: key, res: res, prev: -1, next: -1}
	s.byKey[key] = i
	s.pushFrontLocked(i)
}

func (s *cacheShard) detachLocked(i int32) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (s *cacheShard) pushFrontLocked(i int32) {
	e := &s.entries[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *cacheShard) moveToFrontLocked(i int32) {
	if s.head == i {
		return
	}
	s.detachLocked(i)
	s.pushFrontLocked(i)
}

// len returns the number of cached entries across all shards.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}
