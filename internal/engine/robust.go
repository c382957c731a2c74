package engine

// Robustness plumbing for the serving tier: queue-timeout vs
// peel-timeout semantics, per-query panic isolation, and the stale-read
// API degraded-mode serving is built on. cmd/dmcsd composes these —
// admission control and overload state live above the engine (see
// internal/server); what lives HERE is everything that must hold even
// for direct library callers:
//
//   - A query whose deadline expires while QUEUED (waiting for a worker
//     slot, no peel started) fails with ErrQueueTimeout — distinct from
//     a peel-timeout, which returns a best-so-far partial with
//     Result.TimedOut set. Queue-timeouts produce no result and are
//     never cached, extending the "partials are never cached" invariant
//     to work that never started.
//   - A panic inside one query's peel (a poisoned query, or an injected
//     chaos panic) is confined to that query: the caller gets a
//     *PanicError, the worker slot is released, the possibly-corrupt
//     arena is discarded, and the engine keeps serving.
//   - LookupStale answers a query from its component's current version
//     (not stale — untouched components keep their version across
//     Apply) or, within StaleRetention, from a superseded version of the
//     component's ancestry, when the caller (the overload controller, in
//     practice) decides a stale answer beats no answer.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// ErrQueueTimeout is returned by Search/SearchBatch when a query's
// Options.Timeout budget expired before a worker slot freed up: the
// search never started, so there is no partial result — unlike a
// peel-timeout, which returns the best community found so far with
// Result.TimedOut set. Queue-timeouts count toward both Stats.TimedOut
// and Stats.Errors, and nothing about the query is ever cached.
var ErrQueueTimeout = errors.New("engine: query timed out while queued (search never started)")

// errSlotCancelled is the "the cancel channel fired first" outcome of
// acquireSlot and, for a peel abandoned midway, of compute; compute's
// callers map it onto their own cancellation error.
var errSlotCancelled = errors.New("engine: slot wait cancelled")

// PanicError is what a query whose peel panicked returns: the panic is
// recovered at the engine boundary so one poisoned query costs one
// failed response, never the process. The possibly-corrupt search arena
// is discarded at the same point, so a recovered panic can never leak
// mid-peel scratch state into a later query.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: query panicked: %v", e.Value)
}

// acquireSlot takes a worker-pool slot under the query's remaining
// deadline budget. The uncontended path is a plain non-blocking channel
// send — no timer, no time.Now. When the pool is saturated it waits,
// racing the budget (timeout > 0) and the caller's cancel channel; on a
// successful contended acquire it returns the budget minus the queue
// wait, so queue wait and peel together never exceed the original
// timeout. A budget that runs out while queued — or that the wait fully
// consumed — yields ErrQueueTimeout with the slot released.
func (e *Engine) acquireSlot(timeout time.Duration, cancel <-chan struct{}) (time.Duration, error) {
	select {
	case e.sem <- struct{}{}:
		return timeout, nil
	default:
	}
	var queueC <-chan time.Time
	enq := time.Now()
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		queueC = t.C
	}
	select {
	case e.sem <- struct{}{}:
		if timeout > 0 {
			timeout -= time.Since(enq)
			if timeout <= 0 {
				<-e.sem
				return 0, ErrQueueTimeout
			}
		}
		return timeout, nil
	case <-cancel:
		return 0, errSlotCancelled
	case <-queueC:
		return 0, ErrQueueTimeout
	}
}

// safeSearch runs one peel with per-query panic isolation. compute is
// its one caller and every engine-executed search goes through compute,
// so the isolation and the fault-injection point cannot be bypassed. On
// a recovered panic the bundle's arena — whose epoch tags and scratch
// slots may be mid-peel — is replaced with a fresh one before the bundle
// can return to the pool, and the caller gets a *PanicError.
//
// The faultinject.EnginePeel point fires here: injected latency models
// a slow peel, an injected error a failing one, an injected panic a
// poisoned query exercising the recovery path end to end.
func (e *Engine) safeSearch(ws *workerScratch, sub *graph.SubCSR, q, comp []graph.Node, v dmcs.Variant, opts dmcs.Options) (res *dmcs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			ws.arena = dmcs.NewArena()
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire(faultinject.EnginePeel); err != nil {
		return nil, err
	}
	return dmcs.SearchSub(ws.arena, sub, q, comp, v, opts)
}

// NoteRejected records one admission rejection made by the serving tier
// above the engine (a malformed or over-budget request refused before
// any search work). The count lands on a rotating stats stripe — the
// same pattern the pre-admission error path uses — so a rejection storm
// spreads over the striped counters instead of hammering one cache
// line.
func (e *Engine) NoteRejected() {
	e.stats.recordRejected(int(e.stripeCtr.Add(1) & uint32(e.stats.numStripes()-1)))
}

// NoteShed records one load-shed query (bounded-queue overflow,
// token-bucket exhaustion, or overload-state shedding in the tier
// above). Same striping as NoteRejected.
func (e *Engine) NoteShed() {
	e.stats.recordShed(int(e.stripeCtr.Add(1) & uint32(e.stats.numStripes()-1)))
}

// LookupStale probes the result cache for q's answer at the query
// component's current version first, then — within maxBehind entries of
// the component's recorded ancestry, newest first — at superseded
// versions. It does no search work: a hit returns the cached result, the
// component version it was computed against, and whether that version is
// superseded (stale); a miss returns ok == false and the caller decides
// what failing gracefully means.
//
// Staleness is per component. A hit at the component's current version
// is NOT stale — even if the graph's global epoch has advanced many
// times since the result was computed, an Apply that never touched the
// component leaves its answer exact — and counts as a plain cache hit. A
// hit on a superseded ancestor version counts as Stats.StaleServed and
// returns stale == true; the caller MUST surface such results as stale
// (dmcsd sets "stale": true), because the community may not match the
// current graph.
//
// Ancestry is only recorded when the engine was built with
// Options.StaleRetention > 0; otherwise LookupStale degenerates to a
// current-version probe. A query whose nodes are invalid on the current
// snapshot (out of range, or spanning components) has no current
// component and returns ok == false — as does any other admission
// failure (LookupStale passes the same admit as a query, the
// faultinject.EngineSearch point included).
func (e *Engine) LookupStale(q Query, maxBehind int) (res *dmcs.Result, version uint64, stale, ok bool) {
	snap := e.snap.Load()
	ws := e.getScratch()
	defer e.putScratch(ws)
	opts, id, h, err := e.admit(snap, q, ws)
	if err != nil {
		return nil, 0, false, false
	}
	if res, hit := e.cache.get(h, ws.key); hit {
		e.stats.recordHit(ws.stripe)
		return res, snap.compVer[id], false, true
	}
	hist := snap.compHist[id]
	if maxBehind >= 0 && len(hist) > maxBehind {
		hist = hist[:maxBehind]
	}
	for _, ref := range hist {
		ws.key = appendCacheKey(ws.key[:0], ref.key, ref.ver, ws.nodes, q.Variant, opts)
		if res, hit := e.cache.get(hashKey(ws.key), ws.key); hit {
			e.stats.recordStaleServed(ws.stripe)
			return res, ref.ver, true, true
		}
	}
	return nil, 0, false, false
}
