package engine

import (
	"context"
	"slices"
	"strconv"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
)

// flight is one in-flight computation that concurrent identical misses
// collapse onto. The first miss (the leader) registers the flight in its
// cache shard and spawns the computing goroutine; later misses on the
// same (component version, key, effective timeout) join it. Everyone —
// leader included — waits on done, so a thundering herd of N identical
// misses costs one peel instead of N. Because flight keys carry the
// identity of the component's version record rather than the global
// epoch, an Apply that does not touch a flight's component — and
// so carries its record to the successor unchanged — leaves the flight
// joinable, and its eventual result cacheable and servable, across the
// snapshot swap.
//
// Cancellation is refcounted, which is what makes joining safe: a
// waiter whose context fires leaves its wait immediately (returning its
// own ctx.Err()) and only decrements waiters; the shared computation is
// aborted — by closing cancel, which is wired into the search's
// Options.Cancel — only when the last waiter has left. So a joiner's
// cancellation never poisons the result other waiters are blocked on,
// and a fully abandoned computation stops peeling instead of running to
// completion for nobody.
type flight struct {
	done   chan struct{} // closed by the computing goroutine when res/err are set
	cancel chan struct{} // closed by the last departing waiter to abort the peel
	// waiters is guarded by the owning shard's mutex. It starts at 1
	// (the leader) and is joinable while > 0; once it reaches 0 the
	// flight is dead — late arrivals for the same key start a fresh one.
	waiters int
	// nodes and key are the leader's copies of the normalized query and
	// its cache key, immutable once the flight is registered: what the
	// computing goroutine peels and publishes under, and what a joiner's
	// own-clock fallback reuses instead of re-admitting the query.
	nodes []graph.Node
	//dmcs:keyed
	key string
	res *dmcs.Result
	err error
}

// appendFlightKey extends a cache key with the query's effective timeout.
// The cache key deliberately excludes Timeout (only complete results are
// cached, and those do not depend on the deadline), but a flight's
// deadline shapes which partial it would produce, so queries only
// collapse onto computations configured with the same timeout — and even
// then, joiners refuse TimedOut outcomes (leader-clock skew) and fall
// back to their own clock; see searchShared.
//
//dmcs:keymaker
func appendFlightKey(b []byte, timeout time.Duration) []byte {
	b = append(b, '|', 't')
	return strconv.AppendInt(b, int64(timeout), 10)
}

// searchShared is the miss path when caching is enabled: join the key's
// in-flight computation if one is running, otherwise become the leader
// of a new one. ws holds the admitted nodes and cache key on entry; the
// component id has already been validated against snap. searchShared
// takes ownership of ws and returns it to the pool before blocking on
// the flight — a parked waiter must not pin an arena-bearing bundle, or
// live bundles would scale with concurrent callers instead of actual
// parallelism.
//
// Joiners accept only complete (or errored) flight outcomes. A flight
// that ends TimedOut hit a deadline measured from the LEADER's start —
// a joiner that arrived later may have most of its own budget left, so
// handing it the leader's partial would shortchange it by the arrival
// skew. Such a joiner falls back to one computation on its own clock
// (exactly the serial semantics), which also caches its result if it
// completes. The leader keeps its own TimedOut partial: that clock was
// genuinely its own.
//
// Consequence worth knowing: for a hot key whose peel always exceeds
// the configured timeout, collapsing degrades to one peel per caller —
// each partial is arrival-time-dependent, so sharing any of them would
// change answers, and the fallbacks deliberately do not collapse with
// each other for the same reason. That is exactly the pre-singleflight
// cost (every caller peels, bounded by the Workers semaphore), not a
// new failure mode; singleflight's win applies to computations that
// complete.
//
//dmcs:owns ws
func (e *Engine) searchShared(ctx context.Context, snap *Snapshot, id int32, v dmcs.Variant, opts dmcs.Options, ws *workerScratch, h uint64) (*dmcs.Result, error) {
	baseLen := len(ws.key)
	ws.key = appendFlightKey(ws.key, opts.Timeout)
	stripe := ws.stripe
	sh := e.cache.shardFor(h)
	sh.mu.Lock()
	// Re-check the cache under the shard lock: the flight we would have
	// joined may have published between our lock-free miss and here, and
	// publication removes the flight and inserts the entry atomically
	// under this same lock. The probes below use the direct
	// map[string(bytes)] idiom, so a joiner (or this re-check hit)
	// allocates nothing — only the leader materializes keys.
	if i, ok := sh.byKey[string(ws.key[:baseLen])]; ok {
		sh.moveToFrontLocked(i)
		res := sh.entries[i].res
		sh.mu.Unlock()
		e.stats.recordHit(stripe)
		e.putScratch(ws)
		return res, nil
	}
	if f, ok := sh.flights[string(ws.key)]; ok && f.waiters > 0 {
		f.waiters++
		sh.mu.Unlock()
		e.putScratch(ws) // a parked waiter must not pin an arena
		res, err := e.awaitFlight(ctx, sh, f)
		switch {
		case err == ErrQueueTimeout || (err == nil && res.TimedOut):
			// The flight's budget ran out on the LEADER's clock, queued or
			// mid-peel. This caller's clock is not shareable, so it runs one
			// unshared peel — no flight — on the flight's node copy, and
			// publishes it if it runs to completion.
			res, err = e.peelOwn(ctx, snap, id, f.nodes, v, opts, stripe)
			if err == nil && !res.TimedOut {
				sh.mu.Lock()
				sh.addLocked(f.key, res)
				sh.mu.Unlock()
			}
			return res, err
		case err != nil:
			e.stats.recordError(stripe)
			return nil, err
		default:
			e.stats.recordServed(stripe, true)
			return res, nil
		}
	}
	// Leader: materialize the flight key and the node copy the computing
	// goroutine peels (the computation about to run allocates its Result
	// anyway), then release the bundle before blocking.
	fk := string(ws.key)
	f := &flight{done: make(chan struct{}), cancel: make(chan struct{}), waiters: 1,
		nodes: slices.Clone(ws.nodes), key: fk[:baseLen]}
	if sh.flights == nil {
		sh.flights = make(map[string]*flight)
	}
	sh.flights[fk] = f
	sh.mu.Unlock()
	e.putScratch(ws)
	go e.computeFlight(f, sh, fk, snap, id, v, opts)
	res, err := e.awaitFlight(ctx, sh, f)
	if err != nil {
		// A flight queue-timeout IS this leader's queue-timeout: the
		// flight's clock started when the leader registered it.
		if err == ErrQueueTimeout {
			e.stats.recordTimedOut(stripe)
		}
		e.stats.recordError(stripe)
		return nil, err
	}
	e.stats.recordServed(stripe, false)
	return res, nil
}

// awaitFlight blocks until the flight completes or the caller's context
// fires — whichever comes first. The context cancels only this caller's
// wait; the shared computation is aborted only if this caller was the
// last waiter. Stats are the caller's concern: a joiner may discard a
// timed-out outcome and recompute, so nothing is recorded here.
func (e *Engine) awaitFlight(ctx context.Context, sh *cacheShard, f *flight) (*dmcs.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		sh.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		sh.mu.Unlock()
		if last {
			close(f.cancel)
		}
		return nil, ctx.Err()
	}
}

// computeFlight runs the flight's single computation with the flight's
// refcounted cancel channel, then publishes — removing the flight and,
// for complete results, inserting the cache entry under one shard lock,
// so no concurrent miss can slip between the two and start a duplicate
// computation. A flight abandoned by its last waiter, queued or
// mid-peel, ends in context.Canceled for nobody; a flight whose budget
// expired while queued hands every waiter ErrQueueTimeout.
//
//dmcs:keyed fk
func (e *Engine) computeFlight(f *flight, sh *cacheShard, fk string, snap *Snapshot, id int32, v dmcs.Variant, opts dmcs.Options) {
	res, err := e.compute(snap, id, f.nodes, v, opts, f.cancel)
	if err == errSlotCancelled {
		err = context.Canceled
	}
	sh.mu.Lock()
	// Guard against having been superseded: if every waiter left and a
	// late arrival started a replacement flight under the same key, the
	// map now points at the replacement — leave it alone.
	if sh.flights[fk] == f {
		delete(sh.flights, fk)
	}
	if err == nil && !res.TimedOut {
		sh.addLocked(f.key, res)
	}
	sh.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// isClosed reports whether c has been closed, without blocking.
func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
