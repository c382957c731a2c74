package engine

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

// holdPeels makes every peel wait d at the engine's faultinject.EnginePeel
// point before it starts, until the test ends: the deterministic stand-in
// for a search slow enough to cancel, join or outlive. The wait is not
// charged to Options.Timeout — the peel's clock starts after it.
func holdPeels(t *testing.T, d time.Duration) {
	t.Helper()
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: d})
	t.Cleanup(faultinject.Reset)
}

// waitFor polls cond until it holds; call it on the test's goroutine.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// flightWaiters reports the number of live flights and the callers
// parked on them.
func flightWaiters(e *Engine) (flights, waiters int) {
	for i := range e.cache.shards {
		sh := &e.cache.shards[i]
		sh.mu.Lock()
		for _, f := range sh.flights {
			flights++
			waiters += f.waiters
		}
		sh.mu.Unlock()
	}
	return flights, waiters
}

// TestHotKeyHerdCollapses is the singleflight contract: a thundering
// herd of identical cold queries costs one peel. Every herd member gets
// the serial answer, but the computed-search counter must show exactly
// one computation — the rest either joined the in-flight one or hit the
// entry it published.
func TestHotKeyHerdCollapses(t *testing.T) {
	g := smallQueryEngineGraph(4, 400)
	e := New(g, Options{Workers: 4})
	ctx := context.Background()
	const herd = 32
	results := make([]*dmcs.Result, herd)
	errs := make([]error, herd)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i], errs[i] = e.Search(ctx, Query{Nodes: []graph.Node{0}})
		}(i)
	}
	close(gate)
	wg.Wait()

	want, err := dmcs.Search(g, []graph.Node{0}, dmcs.VariantFPA, dmcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("herd member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Community, want.Community) || results[i].Score != want.Score {
			t.Fatalf("herd member %d: (%v, %v) != serial (%v, %v)",
				i, results[i].Community, results[i].Score, want.Community, want.Score)
		}
	}
	st := e.Stats()
	if st.Computed != 1 {
		t.Errorf("Computed = %d, want 1: duplicate in-flight misses must collapse to one peel", st.Computed)
	}
	if st.Queries != herd {
		t.Errorf("Queries = %d, want %d", st.Queries, herd)
	}
	if st.CacheHits+st.Collapsed != herd-1 {
		t.Errorf("CacheHits+Collapsed = %d+%d, want %d: every non-leader must join or hit",
			st.CacheHits, st.Collapsed, herd-1)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

// TestSingleflightJoinVsCancel pins the cancellation semantics of
// collapsed queries: a joiner's context cancels only its own wait — it
// returns ctx.Err() promptly while the computation keeps running for the
// remaining waiters — and once the last waiter leaves, the shared
// computation is aborted rather than running to completion for nobody.
// Partial results from the abandoned peel must never be cached.
func TestSingleflightJoinVsCancel(t *testing.T) {
	// The shared peel is held open for longer than the whole scenario
	// takes, so every cancellation below lands on a running computation.
	holdPeels(t, 300*time.Millisecond)
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 2})
	q := Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA}
	waiting := func(n int) func() bool {
		return func() bool { _, w := flightWaiters(e); return w == n }
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	outcomes := make(chan error, 3)
	search := func(ctx context.Context) {
		_, err := e.Search(ctx, q)
		outcomes <- err
	}
	go search(leaderCtx)
	waitFor(t, "the leader's peel to start", func() bool { return faultinject.Hits(faultinject.EnginePeel) == 1 })

	j1Ctx, cancelJ1 := context.WithCancel(context.Background())
	defer cancelJ1()
	j2Ctx, cancelJ2 := context.WithCancel(context.Background())
	defer cancelJ2()
	go search(j1Ctx)
	go search(j2Ctx)
	waitFor(t, "both joiners to park on the flight", waiting(3))

	// Cancel one joiner: it must come back promptly with its own
	// ctx.Err() while the other joiner and the leader stay blocked on the
	// still-running computation.
	cancelStart := time.Now()
	cancelJ1()
	if err := <-outcomes; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner: err = %v, want context.Canceled", err)
	}
	if waited := time.Since(cancelStart); waited > 2*time.Second {
		t.Fatalf("cancelled joiner took %v to unwind its wait", waited)
	}
	select {
	case err := <-outcomes:
		t.Fatalf("another waiter returned (%v) although its context is live and the peel is not done", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, w := flightWaiters(e); w != 2 {
		t.Fatalf("%d callers parked on the flight after one joiner left, want 2", w)
	}

	// Cancel the rest: the last departure aborts the shared computation.
	cancelJ2()
	cancelLeader()
	for i := 0; i < 2; i++ {
		if err := <-outcomes; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d: err = %v, want context.Canceled", i, err)
		}
	}
	waitFor(t, "the abandoned flight to unwind", func() bool { f, _ := flightWaiters(e); return f == 0 })
	if hits := faultinject.Hits(faultinject.EnginePeel); hits != 1 {
		t.Errorf("%d peels started, want 1: joiners must not compute", hits)
	}
	st := e.Stats()
	if st.Errors != 3 {
		t.Errorf("Errors = %d, want 3 (every caller cancelled)", st.Errors)
	}
	if st.CacheEntries != 0 {
		t.Errorf("CacheEntries = %d, want 0: an abandoned peel's partial result must not be cached", st.CacheEntries)
	}
}

// TestJoinerOwnClockOnTimeout pins the deadline fairness of collapsed
// queries: when a shared computation expires, that deadline was measured
// from the leader's start, so a joiner does not inherit the leader's
// partial — it recomputes under its own clock, exactly as if it had run
// alone, and neither partial is ever cached.
func TestJoinerOwnClockOnTimeout(t *testing.T) {
	// Each peel is held open long enough for the second caller to join the
	// first one's flight, and a 1ns budget has always run out by the
	// peel's first deadline poll.
	holdPeels(t, 100*time.Millisecond)
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 2})
	q := Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA,
		Opts: dmcs.Options{Timeout: time.Nanosecond}}
	type out struct {
		r   *dmcs.Result
		err error
	}
	outs := make(chan out, 2)
	search := func() { r, err := e.Search(context.Background(), q); outs <- out{r, err} }
	go search()
	waitFor(t, "the leader's peel to start", func() bool { return faultinject.Hits(faultinject.EnginePeel) == 1 })
	go search()
	waitFor(t, "the second caller to join mid-flight", func() bool { _, w := flightWaiters(e); return w == 2 })
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatalf("caller %d: %v", i, o.err)
		}
		if !o.r.TimedOut {
			t.Fatalf("caller %d: expected a TimedOut partial under a 1ns budget", i)
		}
	}
	st := e.Stats()
	if st.Computed != 2 {
		t.Errorf("Computed = %d, want 2: the joiner must recompute on its own clock, not adopt the leader's partial", st.Computed)
	}
	if st.Collapsed != 0 {
		t.Errorf("Collapsed = %d, want 0: a timed-out flight outcome must not count as a collapse", st.Collapsed)
	}
	if st.CacheEntries != 0 {
		t.Errorf("CacheEntries = %d, want 0: partials must never be cached", st.CacheEntries)
	}
}

// TestStripedStatsExactTotals proves the striping never approximates:
// with concurrent recorders spread over the stripes, snapshot() sums
// must equal the number of recorded events exactly.
func TestStripedStatsExactTotals(t *testing.T) {
	s := newStatsCollector(8)
	const goroutines = 16
	const perG = 5000 // divisible by 5: each event kind gets perG/5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stripe := g % s.numStripes()
			for i := 0; i < perG; i++ {
				switch i % 5 {
				case 0:
					s.recordHit(stripe)
				case 1:
					s.recordServed(stripe, false)
				case 2:
					s.recordServed(stripe, true)
				case 3:
					s.recordError(stripe)
				case 4:
					s.recordSearch(stripe, time.Duration(i+1)*time.Microsecond, true)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.snapshot(0)
	perKind := uint64(goroutines * perG / 5)
	if want := 4 * perKind; st.Queries != want { // hits + 2x served + errors
		t.Errorf("Queries = %d, want %d", st.Queries, want)
	}
	if st.CacheHits != perKind {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, perKind)
	}
	if st.Collapsed != perKind {
		t.Errorf("Collapsed = %d, want %d", st.Collapsed, perKind)
	}
	if st.Errors != perKind {
		t.Errorf("Errors = %d, want %d", st.Errors, perKind)
	}
	if st.Computed != perKind {
		t.Errorf("Computed = %d, want %d", st.Computed, perKind)
	}
	if st.P50 <= 0 || st.P95 < st.P50 {
		t.Errorf("implausible percentiles: %+v", st)
	}
}

// TestStatsStaleStripeExcluded pins the recency semantics of the
// latency window: once latencyWindow newer searches have been recorded
// (on any stripe), an idle stripe's old samples fall out of the
// percentiles instead of haunting the tail forever.
func TestStatsStaleStripeExcluded(t *testing.T) {
	s := newStatsCollector(2)
	// Ten slow searches land on stripe 0, then the workload shifts: a
	// full window of fast searches lands on stripe 1.
	for i := 0; i < 10; i++ {
		s.recordSearch(0, time.Second, true)
	}
	for i := 0; i < latencyWindow; i++ {
		s.recordSearch(1, time.Microsecond, true)
	}
	st := s.snapshot(0)
	if st.P95 != time.Microsecond {
		t.Errorf("P95 = %v, want 1µs: stripe 0's stale 1s samples must be outside the recency window", st.P95)
	}
	// Before the window has rolled over, old samples still count: five
	// slow samples among 55 sit above the 95th percentile rank.
	s2 := newStatsCollector(2)
	for i := 0; i < 5; i++ {
		s2.recordSearch(0, time.Second, true)
	}
	for i := 0; i < 50; i++ {
		s2.recordSearch(1, time.Microsecond, true)
	}
	if st := s2.snapshot(0); st.P95 != time.Second {
		t.Errorf("P95 = %v, want 1s: recent slow samples must still dominate the tail", st.P95)
	}
}

// TestShardedCacheRacesApply stress-races the whole serving surface
// under -race: sharded get/add via Search, direct clear(), and Apply's
// epoch bumps (which clear too), all concurrently. Beyond being
// race-free, the end state must be exact: the engine's Queries counter
// equals the number of Search calls made, no query ever errors (the
// toggled edge is chord-covered, so components never split), and the
// cache never exceeds its capacity.
func TestShardedCacheRacesApply(t *testing.T) {
	const comps, size = 8, 40
	e := New(smallQueryEngineGraph(comps, size), Options{Workers: 4, CacheSize: 32})
	ctx := context.Background()
	const searchers = 4
	const perSearcher = 300
	var wg sync.WaitGroup
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			nodes := make([]graph.Node, 1)
			for i := 0; i < perSearcher; i++ {
				nodes[0] = graph.Node(((s*perSearcher + i) % comps) * size)
				if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
					t.Errorf("searcher %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // epoch-bumping applier
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var b Batch
			if i%2 == 0 {
				b.RemoveEdge(0, 1)
			} else {
				b.AddEdge(0, 1)
			}
			e.Apply(b)
		}
	}()
	go func() { // direct clear + stats reader
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.cache.clear()
			_ = e.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	st := e.Stats()
	if want := uint64(searchers * perSearcher); st.Queries != want {
		t.Errorf("Queries = %d, want exactly %d", st.Queries, want)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
	if n := e.cache.len(); n > 32 {
		t.Errorf("cache holds %d entries, capacity 32", n)
	}
}

// TestEngineMatchesSerialAcrossServingConfigs is the determinism
// contract of the serving rebuild: for every variant, the engine's
// answer is bit-identical to serial dmcs.SearchSub against the same
// snapshot — regardless of worker count (which also varies the shard and
// stripe counts), cache state, or whether a query was computed, served
// from cache, or collapsed onto a concurrent identical query.
func TestEngineMatchesSerialAcrossServingConfigs(t *testing.T) {
	res := testGraph(t, 300)
	ref := NewSnapshot(res.G)
	arena := dmcs.NewArena()
	serial := func(q Query) (*dmcs.Result, error) {
		nodes := normalizeNodes(q.Nodes)
		id, err := ref.componentIndex(nodes)
		if err != nil {
			return nil, err
		}
		return dmcs.SearchSub(arena, ref.SubCSR(id), nodes, ref.comps[id], q.Variant, canonicalOptions(q.Opts))
	}

	var qs []Query
	for _, v := range []dmcs.Variant{dmcs.VariantFPA, dmcs.VariantNCA, dmcs.VariantNCADR, dmcs.VariantFPADMG} {
		qs = append(qs,
			Query{Nodes: []graph.Node{0}, Variant: v},
			Query{Nodes: []graph.Node{5, 40}, Variant: v},
		)
	}
	qs = append(qs,
		Query{Nodes: []graph.Node{7}, Opts: dmcs.Options{LayerPruning: true}},
		Query{Nodes: []graph.Node{7}, Opts: dmcs.Options{Objective: dmcs.ClassicModularity}},
		Query{Nodes: []graph.Node{7}, Opts: dmcs.Options{Objective: dmcs.GeneralizedModularityDensity, Chi: 2}},
	)
	want := make([]*dmcs.Result, len(qs))
	for i, q := range qs {
		w, err := serial(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	blast := Query{Nodes: []graph.Node{9}, Variant: dmcs.VariantNCA}
	wantBlast, err := serial(blast)
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	for _, workers := range []int{1, 2, 8} {
		for _, cacheSize := range []int{-1, 64} {
			e := New(res.G, Options{Workers: workers, CacheSize: cacheSize})
			// Two rounds over the batch (second round hits when caching),
			// then a concurrent same-query blast to force joining.
			for round := 0; round < 2; round++ {
				got := e.SearchBatch(context.Background(), qs)
				for i := range qs {
					if got[i].Err != nil {
						t.Fatalf("workers=%d cache=%d round=%d query %d: %v",
							workers, cacheSize, round, i, got[i].Err)
					}
					if !reflect.DeepEqual(got[i].Result.Community, want[i].Community) ||
						got[i].Result.Score != want[i].Score ||
						got[i].Result.Iterations != want[i].Iterations {
						t.Fatalf("workers=%d cache=%d round=%d query %d: engine (%v, %v) != SearchSub (%v, %v)",
							workers, cacheSize, round, i,
							got[i].Result.Community, got[i].Result.Score,
							want[i].Community, want[i].Score)
					}
				}
			}
			// The blast: eight callers released together on a key no
			// round has touched, its peel held open so the followers find
			// it in flight. With caching on that is one computation — each
			// follower joins the flight or hits the entry it published.
			faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 20 * time.Millisecond})
			before := e.Stats().Computed
			release := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-release
					r, err := e.Search(context.Background(), blast)
					if err != nil {
						t.Errorf("concurrent blast: %v", err)
						return
					}
					if !reflect.DeepEqual(r.Community, wantBlast.Community) || r.Score != wantBlast.Score {
						t.Errorf("concurrent blast: (%v, %v) != SearchSub (%v, %v)",
							r.Community, r.Score, wantBlast.Community, wantBlast.Score)
					}
				}()
			}
			close(release)
			wg.Wait()
			faultinject.Clear(faultinject.EnginePeel)
			if computed := e.Stats().Computed - before; cacheSize > 0 && computed != 1 {
				t.Errorf("workers=%d: the blast computed %d times, want 1", workers, computed)
			}
		}
	}
}
