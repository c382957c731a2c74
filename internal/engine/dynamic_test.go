package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// TestApplyPublishesNewVersion: Apply bumps the epoch, the new snapshot
// reflects the batch (component count, growth, the ApplyStats counts),
// and the new version answers queries (TestEngineAgainstModel holds the
// answers themselves to the model).
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
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 3}}); err != nil {
		t.Fatalf("post-batch query: %v", err)
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

// TestCacheKeyCarriesEpoch pins the structural half of the invalidation
// guarantee: the same normalized query never shares a cache key across
// two component identities — and a component takes a fresh identity with
// every new version — so even a result inserted late (by a query that
// admitted before the swap and finished after it) cannot answer a lookup
// at the component's next version, while an identical identity, i.e. an
// untouched component, produces the identical key across an Apply, which
// is what keeps its cache warm.
func TestCacheKeyCarriesEpoch(t *testing.T) {
	nodes := []graph.Node{1, 2, 3}
	k0 := appendCacheKey(nil, 0, nodes, dmcs.VariantFPA, dmcs.Options{})
	k1 := appendCacheKey(nil, 1, nodes, dmcs.VariantFPA, dmcs.Options{})
	if bytes.Equal(k0, k1) {
		t.Fatalf("cache keys for different component identities collide: %q", k0)
	}
	// The delimiter after the identity must prevent positional ambiguity
	// with the variant that follows: (key=1, variant=11) vs (key=11,
	// variant=1).
	if bytes.Equal(
		appendCacheKey(nil, 1, nodes, dmcs.Variant(11), dmcs.Options{}),
		appendCacheKey(nil, 11, nodes, dmcs.Variant(1), dmcs.Options{}),
	) {
		t.Fatal("identity/variant concatenation is ambiguous")
	}
	if !bytes.Equal(k0, appendCacheKey(nil, 0, nodes, dmcs.VariantFPA, dmcs.Options{})) {
		t.Fatal("identical stamps must produce identical keys")
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
