package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// TestFusedBatchDedupStats pins the fused path's accounting: B identical
// misses in one batch cost one peel — one Fused/Computed count, B-1
// Collapsed — and a pre-seeded cache answers the whole batch as hits.
func TestFusedBatchDedupStats(t *testing.T) {
	res := testGraph(t, 300)
	e := New(res.G, Options{Workers: 4})
	ctx := context.Background()

	const b = 8
	qs := make([]Query, b)
	for i := range qs {
		qs[i] = Query{Nodes: []graph.Node{7}}
	}
	out := e.SearchBatch(ctx, qs)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("query %d: %v", i, out[i].Err)
		}
		if out[i].Result != out[0].Result {
			t.Fatalf("query %d: duplicates should share the leader's result pointer", i)
		}
	}
	st := e.Stats()
	if st.Queries != b || st.Fused != 1 || st.Computed != 1 || st.Collapsed != b-1 || st.CacheHits != 0 {
		t.Fatalf("after dup batch: queries=%d fused=%d computed=%d collapsed=%d hits=%d, want %d/1/1/%d/0",
			st.Queries, st.Fused, st.Computed, st.Collapsed, st.CacheHits, b, b-1)
	}

	// Same batch again: every query is a cache hit, nothing recomputes.
	e.SearchBatch(ctx, qs)
	st = e.Stats()
	if st.CacheHits != b || st.Fused != 1 || st.Computed != 1 {
		t.Fatalf("after cached batch: hits=%d fused=%d computed=%d, want %d/1/1", st.CacheHits, st.Fused, st.Computed, b)
	}
}

// TestFusedBatchErrorQueries checks invalid queries fail individually
// with the right error while the rest of the batch completes.
func TestFusedBatchErrorQueries(t *testing.T) {
	res := testGraph(t, 300)
	e := New(res.G, Options{Workers: 2})
	qs := []Query{
		{Nodes: []graph.Node{1}},
		{},
		{Nodes: []graph.Node{graph.Node(res.G.NumNodes() + 5)}},
		{Nodes: []graph.Node{2}},
	}
	out := e.SearchBatch(context.Background(), qs)
	if out[0].Err != nil || out[3].Err != nil {
		t.Fatalf("valid queries errored: %v, %v", out[0].Err, out[3].Err)
	}
	if !errors.Is(out[1].Err, dmcs.ErrEmptyQuery) {
		t.Fatalf("empty query err = %v, want ErrEmptyQuery", out[1].Err)
	}
	if !errors.Is(out[2].Err, ErrNodeOutOfRange) {
		t.Fatalf("out-of-range query err = %v, want ErrNodeOutOfRange", out[2].Err)
	}
	if st := e.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
}

// TestFusedBatchCancelledContext: a context cancelled before the call
// fails every query with ctx.Err() instead of hanging or panicking.
func TestFusedBatchCancelledContext(t *testing.T) {
	res := testGraph(t, 300)
	e := New(res.G, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.SearchBatch(ctx, []Query{{Nodes: []graph.Node{1}}, {Nodes: []graph.Node{2}}})
	for i := range out {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, out[i].Err)
		}
	}
}

// TestFusedBatchCacheDisabled is the cache-disabled row of the fused
// path: nothing in it needs a cache, so the batch still bit-matches
// serial, and its two identical queries still share one peel.
func TestFusedBatchCacheDisabled(t *testing.T) {
	res := testGraph(t, 300)
	e := New(res.G, Options{Workers: 4, CacheSize: -1})
	qs := []Query{{Nodes: []graph.Node{3}}, {Nodes: []graph.Node{3}}, {Nodes: []graph.Node{11}}}
	out := e.SearchBatch(context.Background(), qs)
	for i, q := range qs {
		want, err := dmcs.Search(res.G, normalizeNodes(q.Nodes), q.Variant, q.Opts)
		if err != nil || out[i].Err != nil {
			t.Fatalf("query %d: %v / %v", i, err, out[i].Err)
		}
		if math.Float64bits(out[i].Result.Score) != math.Float64bits(want.Score) ||
			!reflect.DeepEqual(out[i].Result.Community, want.Community) {
			t.Fatalf("query %d: fused result differs from serial", i)
		}
	}
	if out[0].Result != out[1].Result {
		t.Fatal("identical queries should share the leader's result pointer")
	}
	if st := e.Stats(); st.Queries != 3 || st.Computed != 2 || st.Fused != 2 || st.Collapsed != 1 || st.CacheEntries != 0 {
		t.Fatalf("queries=%d computed=%d fused=%d collapsed=%d entries=%d, want 3/2/2/1/0",
			st.Queries, st.Computed, st.Fused, st.Collapsed, st.CacheEntries)
	}
}

// TestFusedBatchEmpty: the degenerate empty batch returns an empty slice
// without touching stats.
func TestFusedBatchEmpty(t *testing.T) {
	res := testGraph(t, 300)
	e := New(res.G, Options{Workers: 2})
	if out := e.SearchBatch(context.Background(), nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	if st := e.Stats(); st.Queries != 0 {
		t.Fatalf("empty batch recorded %d queries", st.Queries)
	}
}

// TestFusedBatchCancelMidBatch: a batch cancelled while it runs stops
// working — at most the peel in flight finishes unwinding, the leaders
// still queued fail with ctx.Err() without building a sub-CSR or
// starting a peel, and the result already computed is kept.
func TestFusedBatchCancelMidBatch(t *testing.T) {
	const comps = 16
	holdPeels(t, 20*time.Millisecond)
	e := New(smallQueryEngineGraph(comps, 32), Options{Workers: 1})
	qs := make([]Query, comps)
	for c := range qs {
		qs[c] = Query{Nodes: []graph.Node{graph.Node(c * 32)}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	atCancel := make(chan uint64)
	go func() {
		for e.Stats().Computed == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		atCancel <- e.Stats().Computed
	}()
	out := e.SearchBatch(ctx, qs)
	seen := <-atCancel
	if got := e.Stats().Computed; got > seen+1 {
		t.Errorf("Computed grew from %d to %d after the cancel, want at most the one peel in flight", seen, got)
	}
	done := 0
	for i := range out {
		switch {
		case out[i].Err == nil:
			done++
		case !errors.Is(out[i].Err, context.Canceled):
			t.Errorf("query %d: err = %v, want context.Canceled", i, out[i].Err)
		}
	}
	if done == 0 || done == comps {
		t.Errorf("%d of %d queries completed, want the ones before the cancel and no others", done, comps)
	}
	if st := e.Stats(); st.Queries != comps || st.Errors != uint64(comps-done) {
		t.Errorf("queries=%d errors=%d, want %d/%d", st.Queries, st.Errors, comps, comps-done)
	}
}

// TestFusedBatchPassesEngineSearchPoint: every query of a batch passes
// the pre-admission fault point Search passes, once.
func TestFusedBatchPassesEngineSearchPoint(t *testing.T) {
	injected := errors.New("injected admission error")
	faultinject.Set(faultinject.EngineSearch, faultinject.Injection{Err: injected})
	t.Cleanup(faultinject.Reset)
	e := New(smallQueryEngineGraph(4, 32), Options{Workers: 2})
	qs := []Query{{Nodes: []graph.Node{0}}, {Nodes: []graph.Node{0}}, {Nodes: []graph.Node{32}}}
	for i, r := range e.SearchBatch(context.Background(), qs) {
		if r.Err != injected {
			t.Errorf("query %d: err = %v, want the injected error", i, r.Err)
		}
	}
	if n := faultinject.Fired(faultinject.EngineSearch); n != len(qs) {
		t.Errorf("point fired %d times for %d queries", n, len(qs))
	}
	if st := e.Stats(); st.Queries != 3 || st.Errors != 3 || st.Computed != 0 {
		t.Errorf("queries=%d errors=%d computed=%d, want 3/3/0", st.Queries, st.Errors, st.Computed)
	}
}
