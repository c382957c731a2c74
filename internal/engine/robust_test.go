package engine

// Tests for the serving-robustness layer: queue-timeout vs peel-timeout
// semantics, per-query panic isolation (with poisoned-arena discard),
// the stale-read API, and the new overload counters.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// TestQueueTimeoutDistinctFromPeelTimeout is the regression test for the
// Options.Timeout boundary fix: a query whose budget expires while
// QUEUED (worker pool saturated, peel never started) must fail with
// ErrQueueTimeout — not return a TimedOut partial — and must leave
// nothing in the cache.
func TestQueueTimeoutDistinctFromPeelTimeout(t *testing.T) {
	defer faultinject.Reset()
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 1})

	// Occupy the single worker with a slow peel (injected 300ms latency,
	// fired exactly once so the later re-query runs clean).
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 300 * time.Millisecond, Limit: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Search(context.Background(), Query{Nodes: []graph.Node{0}})
		if err != nil {
			t.Errorf("slow query failed: %v", err)
		}
	}()
	// Wait until the slow peel holds the worker slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(e.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never took the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A second, different query with a 30ms budget: it queues behind the
	// slow peel and must report a queue-timeout, never a partial.
	r, err := e.Search(context.Background(), Query{Nodes: []graph.Node{1}, Opts: dmcs.Options{Timeout: 30 * time.Millisecond}})
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued query: got (%v, %v), want ErrQueueTimeout", r, err)
	}
	if r != nil {
		t.Fatal("queue-timeout must not produce a result")
	}
	wg.Wait()

	st := e.Stats()
	if st.TimedOut == 0 {
		t.Errorf("Stats.TimedOut = 0 after a queue-timeout")
	}
	if st.Errors == 0 {
		t.Errorf("Stats.Errors = 0 after a queue-timeout")
	}

	// Never cached: re-issuing the queue-timed-out query must be a miss
	// that computes fresh (and now succeeds — the worker is free).
	before := e.Stats().Computed
	r2, err := e.Search(context.Background(), Query{Nodes: []graph.Node{1}, Opts: dmcs.Options{Timeout: 30 * time.Millisecond}})
	if err != nil || r2 == nil || r2.TimedOut {
		t.Fatalf("re-query after queue-timeout: res=%v err=%v", r2, err)
	}
	if e.Stats().Computed <= before {
		t.Error("re-query was served from cache — a queue-timed-out query left a cache entry")
	}
}

// TestPeelTimeoutStillReturnsPartial pins the other half of the
// distinction: a budget that expires MID-peel keeps the documented
// best-so-far contract (TimedOut partial, nil error), counts toward
// Stats.TimedOut, and is still never cached.
func TestPeelTimeoutStillReturnsPartial(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{})
	// The pool is idle, so the budget reaches the peel whole — and 1ns
	// has always run out by the peel's first deadline poll.
	r, err := e.Search(context.Background(), Query{
		Nodes:   []graph.Node{0},
		Variant: dmcs.VariantNCA,
		Opts:    dmcs.Options{Timeout: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Fatal("expected a TimedOut partial under a 1ns budget")
	}
	st := e.Stats()
	if st.TimedOut == 0 {
		t.Error("Stats.TimedOut = 0 after a peel-timeout")
	}
	if st.CacheEntries != 0 {
		t.Error("timed-out partial was cached")
	}
}

// TestAcquireSlotDeductsQueueWait unit-tests the budget accounting
// directly: a contended acquire must return the original budget minus
// the observed queue wait, a budget the wait fully consumes must yield
// ErrQueueTimeout with the slot released, and cancellation must win
// when it fires first.
func TestAcquireSlotDeductsQueueWait(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 1})

	// Uncontended: full budget back, no deduction.
	if rem, err := e.acquireSlot(time.Second, nil); err != nil || rem != time.Second {
		t.Fatalf("uncontended acquire: rem=%v err=%v", rem, err)
	}
	<-e.sem

	// Contended, slot freed after ~60ms: remaining ≈ budget − wait.
	e.sem <- struct{}{}
	go func() {
		time.Sleep(60 * time.Millisecond)
		<-e.sem
	}()
	rem, err := e.acquireSlot(time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rem >= time.Second-40*time.Millisecond || rem <= 0 {
		t.Fatalf("contended acquire returned remaining=%v of a 1s budget after a ~60ms wait", rem)
	}
	<-e.sem

	// Budget consumed while queued: ErrQueueTimeout, slot NOT leaked.
	e.sem <- struct{}{}
	if _, err := e.acquireSlot(20*time.Millisecond, nil); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("saturated acquire: err=%v, want ErrQueueTimeout", err)
	}
	<-e.sem
	select {
	case e.sem <- struct{}{}:
		<-e.sem
	default:
		t.Fatal("acquireSlot leaked a worker slot on queue-timeout")
	}

	// Cancellation beats the budget when it fires first.
	e.sem <- struct{}{}
	cancel := make(chan struct{})
	close(cancel)
	if _, err := e.acquireSlot(time.Second, cancel); !errors.Is(err, errSlotCancelled) {
		t.Fatalf("cancelled acquire: err=%v, want errSlotCancelled", err)
	}
	<-e.sem
}

// TestPanicIsolation: a poisoned query (injected panic mid-peel) must
// fail with *PanicError while the process — and the engine — keep
// serving, and the discarded arena must never corrupt later answers.
func TestPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	res := testGraph(t, 400)
	e := New(res.G, Options{})
	q := Query{Nodes: []graph.Node{3}}

	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Panic: "poisoned query", Limit: 1})
	_, err := e.Search(context.Background(), q)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("poisoned query returned %v, want *PanicError", err)
	}
	if faultinject.Fired(faultinject.EnginePeel) != 1 {
		t.Fatalf("panic injection fired %d times", faultinject.Fired(faultinject.EnginePeel))
	}

	// The engine must still serve, and bit-identically to a fresh serial
	// search — a poisoned arena leaking back into the pool would show up
	// here as a corrupt community or score.
	got, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("post-panic query failed: %v", err)
	}
	want, err := dmcs.Search(res.G, q.Nodes, dmcs.VariantFPA, dmcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Community, want.Community) || got.Score != want.Score {
		t.Fatal("post-panic result differs from serial reference")
	}
	if st := e.Stats(); st.Errors == 0 {
		t.Error("panicked query not counted as an error")
	}
}

// TestPanicIsolationHerd: a panic inside a SHARED flight computation
// fails every collapsed waiter with the same *PanicError, and the key
// recovers on the next query.
func TestPanicIsolationHerd(t *testing.T) {
	defer faultinject.Reset()
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 2})
	q := Query{Nodes: []graph.Node{5}}

	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{
		Panic:   "poisoned flight",
		Latency: 20 * time.Millisecond, // hold the flight open so the herd can join
		Limit:   1,
	})
	const herd = 8
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Search(context.Background(), q)
		}(i)
	}
	wg.Wait()

	panicked := 0
	for _, err := range errs {
		var pe *PanicError
		if errors.As(err, &pe) {
			panicked++
		} else if err != nil {
			t.Fatalf("herd member got unexpected error %v", err)
		}
	}
	if panicked == 0 {
		t.Fatal("no herd member observed the injected panic")
	}
	// The exhausted injection lets the key recover.
	if _, err := e.Search(context.Background(), q); err != nil {
		t.Fatalf("key did not recover after flight panic: %v", err)
	}
}

// TestLookupStale covers the degraded-mode read API under per-component
// staleness: an Apply that never touches the queried component leaves
// its answer a fresh current-version hit; an Apply that does touch it
// supersedes the version, and (with retention on) the old answer stays
// reachable through the component's ancestry, counted as StaleServed.
func TestLookupStale(t *testing.T) {
	// Four disjoint ring+chord communities; the query lives in
	// component 0 (nodes 0..15), mutations target specific components.
	g := smallQueryEngineGraph(4, 16)
	q := Query{Nodes: []graph.Node{0}}

	e := New(g, Options{StaleRetention: 4})
	first, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ver, stale, ok := e.LookupStale(q, 0); !ok || stale || ver != 0 {
		t.Fatalf("current-version lookup: ok=%v stale=%v ver=%d", ok, stale, ver)
	}

	// An Apply entirely inside component 1 must not disturb component 0's
	// answer: still a fresh hit at an unchanged version, even with
	// maxBehind 0, and never flagged stale.
	var untouched Batch
	untouched.RemoveEdge(16, 23) // a chord inside component 1
	if st, _ := e.Apply(untouched); st.Epoch != 1 {
		t.Fatalf("Apply epoch = %d, want 1", st.Epoch)
	}
	got, ver, stale, ok := e.LookupStale(q, 0)
	if !ok || stale || ver != 0 {
		t.Fatalf("untouched-component lookup after Apply: ok=%v stale=%v ver=%d", ok, stale, ver)
	}
	if !reflect.DeepEqual(got.Community, first.Community) {
		t.Fatal("untouched-component lookup returned a different community")
	}
	if st := e.Stats(); st.StaleServed != 0 {
		t.Fatalf("untouched-component hits counted as StaleServed (%d)", st.StaleServed)
	}

	// Now mutate INSIDE component 0: its version is superseded, so the
	// cached answer is no longer current.
	var touching Batch
	touching.RemoveEdge(0, 7) // a chord inside component 0; ring stays connected
	if st, _ := e.Apply(touching); st.Epoch != 2 {
		t.Fatalf("Apply epoch = %d, want 2", st.Epoch)
	}

	// maxBehind 0: current version only — the superseded entry must not
	// answer.
	if _, _, _, ok := e.LookupStale(q, 0); ok {
		t.Fatal("superseded entry served for a current-version-only probe")
	}
	// maxBehind 1: the stale answer is reachable through the component's
	// ancestry, flagged with the version it was computed against.
	staleRes, ver, stale, ok := e.LookupStale(q, 1)
	if !ok || !stale || ver != 0 {
		t.Fatalf("stale lookup: ok=%v stale=%v ver=%d", ok, stale, ver)
	}
	if !reflect.DeepEqual(staleRes.Community, first.Community) {
		t.Fatal("stale lookup returned a different community than was cached")
	}
	if st := e.Stats(); st.StaleServed != 1 {
		t.Errorf("Stats.StaleServed = %d, want 1", st.StaleServed)
	}

	// A fresh search repopulates at the component's new version;
	// LookupStale hits the current version and counts as a plain cache
	// hit.
	if _, err := e.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	hitsBefore := e.Stats().CacheHits
	if _, ver, stale, ok := e.LookupStale(q, 4); !ok || stale || ver != 2 {
		t.Fatalf("post-recompute lookup: ok=%v stale=%v ver=%d", ok, stale, ver)
	}
	if e.Stats().CacheHits != hitsBefore+1 {
		t.Error("current-version LookupStale hit not counted as a cache hit")
	}

	// Without retention there is no ancestry: a touching Apply strands
	// the old entry, but untouched components STILL keep their answers —
	// retention only governs stale reachability, not warm hits.
	e2 := New(smallQueryEngineGraph(4, 16), Options{})
	if _, err := e2.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var b2 Batch
	b2.RemoveEdge(16, 23)
	e2.Apply(b2)
	if _, ver, stale, ok := e2.LookupStale(q, 8); !ok || stale || ver != 0 {
		t.Fatalf("retention-0 untouched lookup: ok=%v stale=%v ver=%d", ok, stale, ver)
	}
	var b3 Batch
	b3.RemoveEdge(0, 7)
	e2.Apply(b3)
	if _, _, _, ok := e2.LookupStale(q, 8); ok {
		t.Fatal("StaleRetention=0 engine served a stale entry after a touching Apply")
	}
}

// TestLookupStaleNeverSearches: a miss does no search work.
func TestLookupStaleNeverSearches(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{StaleRetention: 2})
	if _, _, _, ok := e.LookupStale(Query{Nodes: []graph.Node{7}}, 3); ok {
		t.Fatal("cold cache lookup reported a hit")
	}
	if st := e.Stats(); st.Computed != 0 {
		t.Errorf("LookupStale computed %d searches", st.Computed)
	}
}

// TestNoteCounters: the serving tier's shed/reject recorders land in
// Stats without disturbing Queries.
func TestNoteCounters(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{})
	for i := 0; i < 3; i++ {
		e.NoteShed()
	}
	for i := 0; i < 2; i++ {
		e.NoteRejected()
	}
	st := e.Stats()
	if st.Shed != 3 || st.Rejected != 2 {
		t.Fatalf("Shed=%d Rejected=%d, want 3/2", st.Shed, st.Rejected)
	}
	if st.Queries != 0 {
		t.Errorf("Note* recorders leaked into Queries (%d)", st.Queries)
	}
}

// TestStatsP99 sanity: present and ordered after real searches.
func TestStatsP99(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{CacheSize: -1})
	for i := 0; i < 32; i++ {
		if _, err := e.Search(context.Background(), Query{Nodes: []graph.Node{graph.Node(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.P99 <= 0 {
		t.Fatal("P99 not populated")
	}
	if st.P50 > st.P95 || st.P95 > st.P99 {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v", st.P50, st.P95, st.P99)
	}
}
