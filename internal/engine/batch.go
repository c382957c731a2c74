package engine

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
)

// Fused batch execution. SearchBatch admits the whole batch up front
// against ONE snapshot, answers hits immediately, deduplicates identical
// misses inside the batch, groups the remaining leaders by component id,
// and has the worker gang drain them in component order — consecutive
// peels of the same component reuse the snapshot's shared lazily-built
// sub-CSR (one build per group, however many queries hit it) and keep
// each worker's arena sized and cache-warm for that component. Against
// a per-query Search loop that saves B-1 snapshot loads, the flight
// round-trip of every miss, and the goroutine hand-off behind it.
// Per-query BFS layerings are NOT shared across distinct node sets: a
// layering depends on the protected node set, so sharing one would
// change results — only bitwise-identical queries (the deduplicated
// ones) share a peel, which is exactly the singleflight guarantee,
// applied intra-batch without its bookkeeping.
//
// Batch-level snapshot consistency: every query of one SearchBatch call
// is admitted, keyed, and computed against the same graph version, even
// if an Apply lands mid-batch — the duplicate-fallback recompute below
// included.
//
// The fused path deliberately skips the flight table: batch-internal
// duplicates are already collapsed, and registering B flights would put
// B map insertions back on the path the fusion exists to shorten. A
// concurrent Search that misses on the same key may therefore compute
// it redundantly — results are bit-identical either way, and the cache
// re-check under computeFused keeps the window small. Nothing here needs
// a cache: with caching disabled the probes miss, the inserts no-op, and
// the batch still dedups and drains the same way.

// batchPending is one admitted cache-miss awaiting fused execution.
type batchPending struct {
	idx   int // position in qs/out
	nodes []graph.Node
	//dmcs:keyed
	key  string // admit's cache key, materialized; epochkey tracks this field
	h    uint64
	comp int32
	v    dmcs.Variant
	opts dmcs.Options
	dup  int32 // index into pend of the identical leader, or -1
}

// SearchBatch answers qs and returns per-query results in input order.
// Queries are admitted against one snapshot, answered from the cache
// where possible, deduplicated, grouped by component id, and computed by
// up to Workers goroutines pulling groups in component order (the
// concurrency bound is engine-wide: overlapping SearchBatch and Search
// calls share the same semaphore). Results are bit-identical to issuing
// each query through Search serially against the same snapshot. A
// cancelled context fails the remaining queries with ctx.Err() but never
// discards results already computed.
func (e *Engine) SearchBatch(ctx context.Context, qs []Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	snap := e.snap.Load()
	ws := e.getScratch()
	stripe := ws.stripe
	pend := make([]batchPending, 0, len(qs))
	firstByKey := make(map[string]int32, len(qs))
	for i := range qs {
		if err := ctx.Err(); err != nil {
			e.stats.recordError(stripe)
			out[i] = BatchResult{Err: err}
			continue
		}
		opts, id, h, err := e.admit(snap, qs[i], ws)
		if err != nil {
			e.stats.recordError(stripe)
			out[i] = BatchResult{Err: err}
			continue
		}
		if res, ok := e.cache.get(h, ws.key); ok {
			e.stats.recordHit(stripe)
			out[i] = BatchResult{Result: res}
			continue
		}
		// A miss outlives the admission buffers: copy what it needs.
		p := batchPending{idx: i, nodes: slices.Clone(ws.nodes), key: string(ws.key), h: h, comp: id, v: qs[i].Variant, opts: opts, dup: -1}
		if j, ok := firstByKey[p.key]; ok {
			p.dup = j
		} else {
			firstByKey[p.key] = int32(len(pend))
		}
		pend = append(pend, p)
	}
	e.putScratch(ws)
	// Order the leaders so same-component work is contiguous: the worker
	// gang pulls from this order, so a component's sub-CSR is built once
	// (snapshot sync.Once) and each worker's arena stays warm for the
	// component it keeps drawing. Ties keep input order for locality of
	// anything the caller grouped deliberately.
	order := make([]int32, 0, len(pend))
	for pi := range pend {
		if pend[pi].dup < 0 {
			order = append(order, int32(pi))
		}
	}
	if len(order) > 0 {
		slices.SortFunc(order, func(a, b int32) int {
			pa, pb := &pend[a], &pend[b]
			if pa.comp != pb.comp {
				return int(pa.comp) - int(pb.comp)
			}
			return pa.idx - pb.idx
		})
		workers := min(e.workers, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.drainBatch(ctx, snap, pend, order, &next, out, stripe)
			}()
		}
		e.drainBatch(ctx, snap, pend, order, &next, out, stripe)
		wg.Wait()
	}
	// Duplicates: share the leader's completed result (one peel served
	// them all — counted like a singleflight collapse). A leader that
	// errored or timed out produced an answer tied to its own clock and
	// cancellation timing, so its duplicates recompute individually — on
	// the batch's snapshot, through the full Search path.
	for pi := range pend {
		p := &pend[pi]
		if p.dup < 0 {
			continue
		}
		lead := out[pend[p.dup].idx]
		if lead.Err == nil && lead.Result != nil && !lead.Result.TimedOut {
			e.stats.recordServed(stripe, true)
			out[p.idx] = lead
			continue
		}
		res, _, err := e.run(ctx, snap, qs[p.idx], nil)
		out[p.idx] = BatchResult{Result: res, Err: err}
	}
	return out
}

// drainBatch is one gang member's pull loop over the component-ordered
// leader queue.
func (e *Engine) drainBatch(ctx context.Context, snap *Snapshot, pend []batchPending, order []int32, next *atomic.Int64, out []BatchResult, stripe int) {
	for {
		oi := int(next.Add(1)) - 1
		if oi >= len(order) {
			return
		}
		p := &pend[order[oi]]
		out[p.idx] = e.computeFused(ctx, snap, p, stripe)
	}
}

// computeFused answers one deduplicated batch miss: fail it if the batch
// has been cancelled (an uncontended slot acquire never looks, and the
// peel polls only after building a lazy sub-CSR), re-check the cache (a
// concurrent Search may have published the key since admission), then
// peel through the one compute protocol and publish the completed
// result.
func (e *Engine) computeFused(ctx context.Context, snap *Snapshot, p *batchPending, stripe int) BatchResult {
	if err := ctx.Err(); err != nil {
		e.stats.recordError(stripe)
		return BatchResult{Err: err}
	}
	key := []byte(p.key)
	if res, ok := e.cache.get(p.h, key); ok {
		e.stats.recordHit(stripe)
		return BatchResult{Result: res}
	}
	res, err := e.peelOwn(ctx, snap, p.comp, p.nodes, p.v, p.opts, stripe)
	if err != nil {
		return BatchResult{Err: err}
	}
	e.stats.recordFused(stripe)
	if !res.TimedOut {
		// Same publication rule as the flight path: only results that ran
		// to their natural end are shareable across callers.
		e.cache.add(p.h, key, res)
	}
	return BatchResult{Result: res}
}
