package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// serialOn computes the reference answer for q against one captured
// snapshot version, through the plain serial entry point.
func serialOn(t testing.TB, s *Snapshot, q Query) *dmcs.Result {
	t.Helper()
	res, err := dmcs.SearchCSR(s.CSR(), normalizeNodes(q.Nodes), q.Variant, q.Opts)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	return res
}

func sameResult(a, b *dmcs.Result) bool {
	return reflect.DeepEqual(a.Community, b.Community) && a.Score == b.Score && a.Iterations == b.Iterations
}

// TestApplyPublishesNewVersion: Apply bumps the epoch, the new snapshot
// reflects the batch, and queries return exactly the serial answer for
// the new graph version.
func TestApplyPublishesNewVersion(t *testing.T) {
	// Two triangles joined by nothing; the batch bridges them and adds a
	// pendant node.
	g := graph.FromEdges(6, [][2]graph.Node{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	e := New(g, Options{Workers: 2})
	ctx := context.Background()
	if e.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", e.Epoch())
	}
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 3}}); !errors.Is(err, dmcs.ErrDisconnected) {
		t.Fatalf("pre-batch cross-component query: err = %v, want ErrDisconnected", err)
	}

	var b Batch
	b.AddEdge(2, 3)
	b.AddNode(6)
	st, _ := e.Apply(b)
	if st.Epoch != 1 || e.Epoch() != 1 {
		t.Fatalf("epoch after Apply = %d/%d, want 1", st.Epoch, e.Epoch())
	}
	if st.EdgesAdded != 1 || st.NodesAdded != 1 || st.Components != 2 {
		t.Fatalf("stats = %+v, want 1 edge, 1 node, 2 components", st)
	}
	if st.RefloodedNodes != 0 {
		t.Fatalf("insert-only batch reflooded %d nodes, want 0", st.RefloodedNodes)
	}
	got, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 3}})
	if err != nil {
		t.Fatalf("post-batch query: %v", err)
	}
	want := serialOn(t, e.Snapshot(), Query{Nodes: []graph.Node{0, 3}})
	if !sameResult(got, want) {
		t.Fatalf("post-batch result (%v, %v) != serial (%v, %v)", got.Community, got.Score, want.Community, want.Score)
	}
	// The pendant node exists and is queryable as its own community.
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{6}}); err != nil {
		t.Fatalf("new-node query: %v", err)
	}

	// Removing the bridge splits again and refloods only the merged
	// component (7 nodes), not the isolated one.
	var rm Batch
	rm.RemoveEdge(2, 3)
	st, _ = e.Apply(rm)
	if st.Epoch != 2 || st.EdgesRemoved != 1 {
		t.Fatalf("stats = %+v, want epoch 2 with 1 removal", st)
	}
	if st.RefloodedNodes != 6 {
		t.Fatalf("reflooded %d nodes, want 6 (the split component only)", st.RefloodedNodes)
	}
	if st.Components != 3 {
		t.Fatalf("components = %d, want 3", st.Components)
	}
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 3}}); !errors.Is(err, dmcs.ErrDisconnected) {
		t.Fatalf("post-split query: err = %v, want ErrDisconnected", err)
	}
}

// TestApplyNoOpBatchKeepsVersion: a batch whose ops normalize to nothing
// (and an empty batch) must not bump the epoch, cold-start the caches,
// build a successor CSR, or reach the write-ahead log.
func TestApplyNoOpBatchKeepsVersion(t *testing.T) {
	e, _, err := OpenDurable(smallQueryEngineGraph(2, 40), wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseWAL()
	ctx := context.Background()
	q := Query{Nodes: []graph.Node{0}}
	warm, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := e.Apply(Batch{}); st.Epoch != 0 {
		t.Fatalf("empty batch bumped epoch to %d", st.Epoch)
	}
	var b Batch
	b.RemoveEdge(0, 2) // absent (the fixture has no (i, i+2) chord)
	b.AddEdge(0, 1)    // present with weight 1 already
	b.AddNode(5)       // node exists
	before := e.Snapshot()
	if merged, _ := graph.MergeCSR(before.CSR(), b.ops); merged != before.CSR() {
		t.Fatal("MergeCSR built a successor CSR for a batch that normalizes to nothing")
	}
	if st, err := e.Apply(b); err != nil || st.Epoch != 0 {
		t.Fatalf("fully-no-op batch: epoch %d, err %v", st.Epoch, err)
	}
	if after := e.Snapshot(); after != before || after.CSR() != before.CSR() {
		t.Fatal("no-op Apply published a new snapshot")
	}
	if got := e.wal.AppendedEpoch(); got != 0 {
		t.Fatalf("no-op Apply appended to the WAL (epoch %d)", got)
	}
	again, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again != warm {
		t.Fatal("no-op Apply cold-started the result cache")
	}
}

// TestApplyRefloodsOnlyAffectedComponent is the acceptance-criterion
// counter assertion on a many-component graph: a batch whose removals
// touch one component re-floods that component alone.
func TestApplyRefloodsOnlyAffectedComponent(t *testing.T) {
	const comps, size = 10, 40
	e := New(smallQueryEngineGraph(comps, size), Options{})
	// Remove two chords inside component 3 (it stays connected via the
	// ring) — every other component must be left alone.
	var b Batch
	base := graph.Node(3 * size)
	b.RemoveEdge(base, base+7)
	b.RemoveEdge(base+1, base+14)
	st, _ := e.Apply(b)
	if st.EdgesRemoved != 2 {
		t.Fatalf("EdgesRemoved = %d, want 2", st.EdgesRemoved)
	}
	if st.RefloodedNodes != size {
		t.Fatalf("reflooded %d nodes, want exactly the %d-node affected component", st.RefloodedNodes, size)
	}
	if st.Components != comps {
		t.Fatalf("components = %d, want %d", st.Components, comps)
	}
	// Weight-only batches never reflood.
	var w Batch
	w.SetWeight(base, base+1, 2.5)
	if st, _ := e.Apply(w); st.RefloodedNodes != 0 || st.WeightsChanged != 1 {
		t.Fatalf("weight-only batch: %+v, want 0 refloods, 1 weight change", st)
	}
}

// TestEpochInvalidatesCache is the acceptance-criterion invalidation
// test: after any Apply, no query may observe a pre-update cached result
// — even though the pre-update query was a warm cache hit moments before.
func TestEpochInvalidatesCache(t *testing.T) {
	e := New(smallQueryEngineGraph(4, 40), Options{Workers: 2})
	ctx := context.Background()
	q := Query{Nodes: []graph.Node{3}}

	first, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("precondition: repeat query should be a cache hit (shared pointer)")
	}
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("precondition: CacheHits = %d, want 1", hits)
	}

	// Mutate the queried community: drop a chord touching node 3's ring.
	var b Batch
	b.RemoveEdge(3, 10)
	e.Apply(b)

	after, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after == first {
		t.Fatal("post-Apply query returned the pre-update cached *Result")
	}
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("post-Apply query hit the stale cache (CacheHits = %d, want still 1)", hits)
	}
	want := serialOn(t, e.Snapshot(), q)
	if !sameResult(after, want) {
		t.Fatalf("post-Apply result (%v, %v) != serial on new version (%v, %v)",
			after.Community, after.Score, want.Community, want.Score)
	}
	// And the new version caches normally again.
	again2, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again2 != after {
		t.Fatal("new-version repeat should be a cache hit")
	}
}

// TestCacheKeyCarriesEpoch pins the structural half of the invalidation
// guarantee: the same normalized query never shares a cache key across
// two versions of its component, nor across two distinct component
// identities, so even a result inserted late (by a query that admitted
// before the swap and finished after it) cannot answer a lookup at the
// component's next version — while an identical (identity, version)
// stamp, i.e. an untouched component, produces the identical key across
// an Apply, which is what keeps its cache warm.
func TestCacheKeyCarriesEpoch(t *testing.T) {
	nodes := []graph.Node{1, 2, 3}
	k00 := appendCacheKey(nil, 0, 0, nodes, dmcs.VariantFPA, dmcs.Options{})
	k01 := appendCacheKey(nil, 0, 1, nodes, dmcs.VariantFPA, dmcs.Options{})
	k10 := appendCacheKey(nil, 1, 0, nodes, dmcs.VariantFPA, dmcs.Options{})
	if bytes.Equal(k00, k01) {
		t.Fatalf("cache keys for different component versions collide: %q", k00)
	}
	if bytes.Equal(k00, k10) {
		t.Fatalf("cache keys for different component identities collide: %q", k00)
	}
	// The delimiter between identity and version must prevent positional
	// ambiguity: (key=1, ver=10) vs (key=11, ver=0).
	if bytes.Equal(
		appendCacheKey(nil, 1, 10, nodes, dmcs.VariantFPA, dmcs.Options{}),
		appendCacheKey(nil, 11, 0, nodes, dmcs.VariantFPA, dmcs.Options{}),
	) {
		t.Fatal("identity/version concatenation is ambiguous")
	}
	if !bytes.Equal(k00, appendCacheKey(nil, 0, 0, nodes, dmcs.VariantFPA, dmcs.Options{})) {
		t.Fatal("identical stamps must produce identical keys")
	}
}

// TestQueryDuringApplyDifferential is the acceptance-criterion race test:
// queries racing an Apply must return a result bit-identical to running
// serially against either the pre-batch or the post-batch snapshot —
// never a hybrid of the two versions. Run under -race in CI, this also
// proves the swap itself is data-race-free.
func TestQueryDuringApplyDifferential(t *testing.T) {
	const comps, size = 6, 60
	g := smallQueryEngineGraph(comps, size)
	e := New(g, Options{Workers: 8})
	ctx := context.Background()
	// Queries spread across components, including the mutated one.
	queries := []Query{
		{Nodes: []graph.Node{0}},
		{Nodes: []graph.Node{3, 17}},
		{Nodes: []graph.Node{size + 5}},
		{Nodes: []graph.Node{2 * size}, Variant: dmcs.VariantFPADMG},
		{Nodes: []graph.Node{3 * size}, Opts: dmcs.Options{LayerPruning: true}},
	}
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	for round := 0; round < rounds; round++ {
		pre := e.Snapshot()
		// Alternate between removing and restoring two chords of component
		// 0 plus a weight perturbation in component 1, so both the
		// community shapes and the scores differ across versions.
		var b Batch
		if round%2 == 0 {
			b.RemoveEdge(0, 7)
			b.RemoveEdge(3, 16)
			b.SetWeight(graph.Node(size), graph.Node(size+1), 3)
		} else {
			b.AddEdge(0, 7)
			b.AddEdge(3, 16)
			b.SetWeight(graph.Node(size), graph.Node(size+1), 1)
		}

		got := make([]*dmcs.Result, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				res, err := e.Search(ctx, q)
				if err != nil {
					t.Errorf("round %d query %d: %v", round, i, err)
					return
				}
				got[i] = res
			}(i, q)
		}
		e.Apply(b)
		post := e.Snapshot()
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, q := range queries {
			wantPre := serialOn(t, pre, q)
			wantPost := serialOn(t, post, q)
			if !sameResult(got[i], wantPre) && !sameResult(got[i], wantPost) {
				t.Fatalf("round %d query %d: result (%v, %v) matches neither pre (%v, %v) nor post (%v, %v) version",
					round, i, got[i].Community, got[i].Score,
					wantPre.Community, wantPre.Score, wantPost.Community, wantPost.Score)
			}
		}
		// Settled queries (no racing writer) must match the live version
		// exactly. For the untouched components this also covers the
		// frozen-w_G contract: the toggle preserves the graph's total
		// weight exactly (two unit chords out, +2 on one weight), so their
		// stamped-version answers coincide bitwise with the live serial
		// reference — any keying or normalization drift would surface here.
		for i, q := range queries {
			res, err := e.Search(ctx, q)
			if err != nil {
				t.Fatalf("round %d settled query %d: %v", round, i, err)
			}
			if want := serialOn(t, post, q); !sameResult(res, want) {
				t.Fatalf("round %d settled query %d: (%v, %v) != serial (%v, %v)",
					round, i, res.Community, res.Score, want.Community, want.Score)
			}
		}
	}
}

// TestConcurrentApplyAndBatchSearch hammers Apply from several writers
// while batch queries stream — the -race stress for the swap path, the
// component-version-keyed cache, and the immutable-replace entry
// discipline. Writers stay inside components 0..2; component 3 is never
// touched, so when the dust settles it must still be at version 0 with
// its original answer warm.
func TestConcurrentApplyAndBatchSearch(t *testing.T) {
	const comps, size = 4, 40
	e := New(smallQueryEngineGraph(comps, size), Options{Workers: 4, CacheSize: 8})
	ctx := context.Background()
	orig := e.Snapshot()
	var qs []Query
	for c := 0; c < comps; c++ {
		qs = append(qs, Query{Nodes: []graph.Node{graph.Node(c * size)}})
	}
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each writer toggles ring edges inside its own component,
				// restoring on odd rounds what the even round removed.
				var b Batch
				u := graph.Node(w*size + ((r/2)*7)%(size-1))
				if r%2 == 0 {
					b.RemoveEdge(u, u+1)
				} else {
					b.AddEdge(u, u+1)
				}
				e.Apply(b)
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		for _, br := range e.SearchBatch(ctx, qs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
		}
	}
	wg.Wait()
	// Component 3 was never touched: its version must have survived every
	// Apply, and its answer must still be the one computed against the
	// ORIGINAL snapshot — member set, adjacency, and frozen w_G all date
	// from version 0.
	settled := e.Snapshot()
	idx3, err := settled.ComponentID(qs[3].Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if v := settled.ComponentVersion(idx3); v != 0 {
		t.Fatalf("untouched component 3 at version %d, want 0", v)
	}
	res3, err := e.Search(ctx, qs[3])
	if err != nil {
		t.Fatal(err)
	}
	if want := serialOn(t, orig, qs[3]); !sameResult(res3, want) {
		t.Fatalf("untouched component 3 after churn: (%v, %v) != original serial (%v, %v)",
			res3.Community, res3.Score, want.Community, want.Score)
	}
	// One batch touching every component restamps them all at the live
	// graph, so every query must now match the final version's serial
	// reference — frozen w_G and live w_G coincide again.
	var settle Batch
	for c := 0; c < comps; c++ {
		settle.SetWeight(graph.Node(c*size), graph.Node(c*size+1), 2)
	}
	e.Apply(settle)
	final := e.Snapshot()
	for i, q := range qs {
		res, err := e.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := serialOn(t, final, q); !sameResult(res, want) {
			t.Fatalf("query %d after churn: (%v, %v) != serial (%v, %v)",
				i, res.Community, res.Score, want.Community, want.Score)
		}
	}
}

// TestResultCacheConcurrentReplace is the -race stress for the
// immutable-replace fix: writers re-adding the same key while readers
// get it must never let a reader observe a torn or rewritten entry.
func TestResultCacheConcurrentReplace(t *testing.T) {
	c := newResultCache(4, 4)
	key := []byte("k")
	h := hashKey(key)
	results := make([]*dmcs.Result, 8)
	for i := range results {
		results[i] = &dmcs.Result{Score: float64(i)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.add(h, key, results[(w+i)%len(results)])
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if res, ok := c.get(h, key); ok {
					// The entry must always be one of the published
					// results, whole.
					if res.Score < 0 || res.Score >= float64(len(results)) {
						t.Errorf("torn cache entry: %+v", res)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatsPercentileSmallWindowCeilRank is the regression test for the
// floor nearest-rank bug: with fewer than 20 samples the old formula
// could never select the window maximum for P95.
func TestStatsPercentileSmallWindowCeilRank(t *testing.T) {
	s := newStatsCollector(1)
	for i := 1; i <= 10; i++ {
		s.recordSearch(0, time.Duration(i)*time.Millisecond, true)
	}
	st := s.snapshot(0)
	if st.P50 != 5*time.Millisecond {
		t.Errorf("P50 = %v, want 5ms (ceil nearest rank of 10 samples)", st.P50)
	}
	if st.P95 != 10*time.Millisecond {
		t.Errorf("P95 = %v, want 10ms (the window max for n=10)", st.P95)
	}

	s2 := newStatsCollector(1)
	s2.recordSearch(0, 2*time.Millisecond, true)
	s2.recordSearch(0, 8*time.Millisecond, true)
	st = s2.snapshot(0)
	if st.P50 != 2*time.Millisecond || st.P95 != 8*time.Millisecond {
		t.Errorf("n=2: P50/P95 = %v/%v, want 2ms/8ms", st.P50, st.P95)
	}

	// Table-check the rank function itself.
	for _, tc := range []struct{ n, p, want int }{
		{1, 50, 0}, {1, 95, 0},
		{2, 50, 0}, {2, 95, 1},
		{10, 50, 4}, {10, 95, 9},
		{20, 95, 18}, {100, 95, 94}, {4096, 50, 2047},
	} {
		if got := ceilRank(tc.n, tc.p); got != tc.want {
			t.Errorf("ceilRank(%d, %d) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}
