package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// testGraph generates a small deterministic LFR benchmark graph with its
// ground-truth communities.
func testGraph(t testing.TB, n int) *lfr.Result {
	t.Helper()
	cfg := lfr.Default()
	cfg.N = n
	cfg.AvgDeg = 12
	cfg.MaxDeg = 40
	cfg.MinComm = 15
	cfg.MaxComm = 60
	cfg.Seed = 1
	res, err := lfr.Generate(cfg)
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	return res
}

// normalizeNodes returns a sorted, deduplicated copy of q: what admit
// makes of a query's node set, for the serial reference calls.
func normalizeNodes(q []graph.Node) []graph.Node {
	return normalizeNodesInto(nil, q)
}

func TestCacheHits(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 2})
	q := Query{Nodes: []graph.Node{3, 1, 1}} // unnormalized on purpose
	ctx := context.Background()

	first, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Same set under a different order and duplication must hit.
	second, err := e.Search(ctx, Query{Nodes: []graph.Node{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("expected the cached *Result pointer on the second search")
	}
	// A different option shape must miss.
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{1, 3}, Opts: dmcs.Options{TrackOrder: true}}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 3 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want Queries=3 CacheHits=1", st)
	}
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2", st.CacheEntries)
	}
	if st.P50 <= 0 || st.P95 < st.P50 {
		t.Errorf("implausible latency percentiles: %+v", st)
	}
}

// cachePut/cacheGet are test shorthands hashing the key themselves.
func cachePut(c *resultCache, key string, r *dmcs.Result) {
	c.add(hashKey([]byte(key)), []byte(key), r)
}

func cacheGet(c *resultCache, key string) (*dmcs.Result, bool) {
	return c.get(hashKey([]byte(key)), []byte(key))
}

func TestCacheEviction(t *testing.T) {
	// One shard pins the global LRU order; multi-shard eviction is
	// per-shard and covered by TestShardedCachePerShardEviction.
	c := newResultCache(2, 1)
	r := &dmcs.Result{}
	cachePut(c, "a", r)
	cachePut(c, "b", r)
	if _, ok := cacheGet(c, "a"); !ok {
		t.Fatal("a evicted too early")
	}
	cachePut(c, "c", r) // evicts b (a was just touched)
	if _, ok := cacheGet(c, "b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := cacheGet(c, "a"); !ok {
		t.Error("a should have survived")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestShardedCachePerShardEviction groups keys by the shard their hash
// lands them in and verifies each shard runs an independent LRU of its
// own capacity: filling one shard beyond capacity evicts that shard's
// LRU key and nothing in any other shard.
func TestShardedCachePerShardEviction(t *testing.T) {
	c := newResultCache(8, 4) // 4 shards x 2 entries
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}
	// Bucket generated keys by shard until one shard has three keys (one
	// more than its capacity) and a different shard has at least one.
	byShard := make(map[*cacheShard][]string)
	var full []string
	var fullShard *cacheShard
	var other string
	for i := 0; full == nil || other == ""; i++ {
		if i > 10000 {
			t.Fatal("hash never distributed keys across shards")
		}
		k := key(i)
		sh := c.shardFor(hashKey([]byte(k)))
		byShard[sh] = append(byShard[sh], k)
		if full == nil && len(byShard[sh]) == 3 {
			full, fullShard = byShard[sh], sh
		}
		if full != nil && other == "" {
			for osh, keys := range byShard {
				if osh != fullShard {
					other = keys[0]
					break
				}
			}
		}
	}
	r := &dmcs.Result{}
	cachePut(c, other, r)
	cachePut(c, full[0], r)
	cachePut(c, full[1], r)
	cachePut(c, full[2], r) // shard cap 2: evicts full[0], the shard's LRU
	if _, ok := cacheGet(c, full[0]); ok {
		t.Error("expected the overfull shard's LRU key to be evicted")
	}
	for _, k := range []string{full[1], full[2], other} {
		if _, ok := cacheGet(c, k); !ok {
			t.Errorf("key %q should have survived", k)
		}
	}
}

func key(i int) string { return "k" + strconv.Itoa(i) }

// TestShardedCacheCapacityClamp: the shard count never inflates the
// configured capacity — a small cache on a many-core machine (shard
// request > capacity) reduces its shard count instead of exceeding the
// CacheSize contract.
func TestShardedCacheCapacityClamp(t *testing.T) {
	for _, capacity := range []int{1, 32, 33} {
		c := newResultCache(capacity, 64)
		if got := len(c.shards) * int(c.shards[0].cap); got > capacity {
			t.Fatalf("capacity %d: shards hold %d total entries", capacity, got)
		}
		r := &dmcs.Result{}
		for i := 0; i < 4*capacity+8; i++ {
			cachePut(c, key(i), r)
		}
		if n := c.len(); n > capacity {
			t.Fatalf("capacity %d: cache holds %d entries after churn", capacity, n)
		}
	}
}

// TestCacheKeyCanonicalization is the regression test for
// result-irrelevant options splitting identical results across cache
// entries: Chi is ignored unless the objective is
// GeneralizedModularityDensity, and under GMD, Chi 0 and the documented
// default of 1 are the same configuration.
func TestCacheKeyCanonicalization(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{Workers: 2})
	ctx := context.Background()
	nodes := []graph.Node{0}

	r1, err := e.Search(ctx, Query{Nodes: nodes, Opts: dmcs.Options{Chi: 7.5}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Search(ctx, Query{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Chi must not split cache entries under the default objective")
	}

	gmd0, err := e.Search(ctx, Query{Nodes: nodes, Opts: dmcs.Options{Objective: dmcs.GeneralizedModularityDensity}})
	if err != nil {
		t.Fatal(err)
	}
	gmd1, err := e.Search(ctx, Query{Nodes: nodes, Opts: dmcs.Options{Objective: dmcs.GeneralizedModularityDensity, Chi: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if gmd0 != gmd1 {
		t.Error("GMD Chi=0 and Chi=1 are documented-equivalent and must share a cache entry")
	}
	gmd2, err := e.Search(ctx, Query{Nodes: nodes, Opts: dmcs.Options{Objective: dmcs.GeneralizedModularityDensity, Chi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if gmd2 == gmd0 {
		t.Error("GMD Chi=2 is a different configuration and must not hit Chi=1's entry")
	}
	st := e.Stats()
	if st.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2 (the two canonicalized repeats)", st.CacheHits)
	}
	if st.Computed != 3 {
		t.Errorf("Computed = %d, want 3 distinct configurations peeled", st.Computed)
	}
}

// TestSortNodesLargeSets covers the slices.Sort fallback: normalization
// of a large programmatic node set must stay correct (and fast) past the
// insertion-sort threshold.
func TestSortNodesLargeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{insertionSortMax, insertionSortMax + 1, 1000} {
		in := make([]graph.Node, n)
		for i := range in {
			in[i] = graph.Node(rng.Intn(n / 2)) // force duplicates
		}
		got := normalizeNodes(in)
		want := append([]graph.Node(nil), in...)
		slices.Sort(want)
		want = slices.Compact(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: normalizeNodes mismatch", n)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	// Two triangles, disconnected from each other.
	g := graph.FromEdges(6, [][2]graph.Node{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	e := New(g, Options{})
	ctx := context.Background()
	if _, err := e.Search(ctx, Query{}); !errors.Is(err, dmcs.ErrEmptyQuery) {
		t.Errorf("empty query: err = %v", err)
	}
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 99}}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out of range: err = %v", err)
	}
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0, 3}}); !errors.Is(err, dmcs.ErrDisconnected) {
		t.Errorf("disconnected: err = %v", err)
	}
	if e.Snapshot().NumComponents() != 2 {
		t.Errorf("NumComponents = %d, want 2", e.Snapshot().NumComponents())
	}
	st := e.Stats()
	if st.Errors != 3 {
		t.Errorf("Errors = %d, want 3", st.Errors)
	}
}

func TestContextCancelledBeforeStart(t *testing.T) {
	res := testGraph(t, 400)
	e := New(res.G, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Search(ctx, Query{Nodes: []graph.Node{0}}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestContextCancelMidQuery(t *testing.T) {
	// The search is held open at the engine's peel point, so the cancel
	// provably lands while it is executing; the peel then finds its Cancel
	// channel closed at its first poll and unwinds.
	holdPeels(t, 100*time.Millisecond)
	res := testGraph(t, 400)
	e := New(res.G, Options{CacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := e.Search(ctx, Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA})
		done <- err
	}()
	waitFor(t, "the peel to start", func() bool { return faultinject.Hits(faultinject.EnginePeel) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

func TestDefaultTimeoutMarksResult(t *testing.T) {
	// A 1ns budget has always run out by the peel's first deadline poll,
	// however fast the search is.
	res := testGraph(t, 400)
	e := New(res.G, Options{DefaultTimeout: time.Nanosecond})
	r, err := e.Search(context.Background(), Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Fatal("expected TimedOut result under a 1ns default timeout")
	}
	if e.Stats().CacheEntries != 0 {
		t.Error("timed-out results must not be cached")
	}
}

func TestSnapshotAggregatesMatchGraph(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.SetWeight(1, 2, 2.5)
	b.AddEdge(2, 3)
	b.SetWeight(3, 4, 0.5)
	g := b.Build()
	s := NewSnapshot(g)
	c := s.CSR()
	if !c.Weighted() {
		t.Fatal("CSR should report weighted")
	}
	if c.TotalWeight() != g.TotalWeight() {
		t.Errorf("TotalWeight = %v, want %v", c.TotalWeight(), g.TotalWeight())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if c.WeightedDegree(graph.Node(u)) != g.WeightedDegree(graph.Node(u)) {
			t.Errorf("WeightedDegree(%d) = %v, want %v", u, c.WeightedDegree(graph.Node(u)), g.WeightedDegree(graph.Node(u)))
		}
	}
}

// TestEngineSteadyStateZeroAlloc pins the zero-alloc serving contract:
// once the cache is warm, Engine.Search performs no heap allocation
// (BenchmarkEngineSmallQueriesCacheHit's 0 allocs/op, on a smaller fixture).
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := smallQueryEngineGraph(8, 40)
	e := New(g, Options{Workers: 1})
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < 8; c++ {
		nodes[0] = graph.Node(c * 40)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		nodes[0] = graph.Node((i % 8) * 40)
		i++
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state cache-hit serving allocates %.1f allocs/op, want 0", allocs)
	}
}
