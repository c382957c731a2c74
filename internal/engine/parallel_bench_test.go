package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"dmcs/internal/graph"
)

// The parallel benchmark suite measures the contention story of the
// serving path with b.RunParallel (sweep it with -cpu 1,2,4,8):
//
//   - EngineParallelCacheHit: pure warm-cache serving. This path must
//     stay 0 allocs/op (TestEngineParallelCacheHitAllocs) and scale with
//     cores — it takes no global lock, only the key's cache shard and one
//     stats stripe.
//   - EngineParallelMixed90/50: hit-ratio mixes. Misses recompute and
//     re-insert under shard locks while hits stream past on other
//     shards.
//   - EngineHotKeyHerd: every goroutine hammers the same rotating key,
//     so each rotation is a thundering herd on one cold key. The
//     peels/query metric shows singleflight collapsing the herd to ~one
//     computation per rotation.

// warmAllComponents primes the result cache with every component's
// single-node query.
func warmAllComponents(b *testing.B, e *Engine) {
	b.Helper()
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < benchComponents; c++ {
		nodes[0] = graph.Node(c * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
}

// prewarmScratch materializes p scratch bundles in the pool so the
// timed region allocates none (RunParallel runs up to GOMAXPROCS
// goroutines, each needing a bundle).
func prewarmScratch(e *Engine, p int) {
	bundles := make([]*workerScratch, p)
	for i := range bundles {
		bundles[i] = e.getScratch()
	}
	for _, ws := range bundles {
		e.putScratch(ws)
	}
}

// BenchmarkEngineParallelCacheHit is the parallel steady-state serving
// path: all goroutines answer distinct warm keys concurrently.
func BenchmarkEngineParallelCacheHit(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{})
	warmAllComponents(b, e)
	prewarmScratch(e, runtime.GOMAXPROCS(0))
	ctx := context.Background()
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		nodes := make([]graph.Node, 1)
		// Distinct per-goroutine stride so concurrent goroutines walk
		// different keys (and therefore different cache shards).
		i := seed.Add(1) * 7919
		for pb.Next() {
			i++
			nodes[0] = graph.Node(int(i%benchComponents) * benchCompSize)
			if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestEngineParallelCacheHitAllocs: concurrent warm hits allocate nothing
// at any core count.
func TestEngineParallelCacheHitAllocs(t *testing.T) {
	skipAllocGate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		gateAllocs(t, mustBench(t, BenchmarkEngineParallelCacheHit), 0)
	}
}

// benchmarkEngineParallelMixed serves hotPct% of queries from a small
// always-resident hot set and the rest from a cold keyspace larger than
// the cache, so the cold tail keeps missing and recomputing at steady
// state.
func benchmarkEngineParallelMixed(b *testing.B, hotPct uint64) {
	const hotComponents = 8
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{CacheSize: 64})
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < hotComponents; c++ {
		nodes[0] = graph.Node(c * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
	prewarmScratch(e, runtime.GOMAXPROCS(0))
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		nodes := make([]graph.Node, 1)
		i := seed.Add(1) * 7919
		for pb.Next() {
			i++
			var comp uint64
			if i%100 < hotPct {
				comp = i % hotComponents
			} else {
				comp = hotComponents + i%(benchComponents-hotComponents)
			}
			nodes[0] = graph.Node(int(comp) * benchCompSize)
			if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := e.Stats(); st.Queries > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Queries)*100, "hit%")
	}
}

func BenchmarkEngineParallelMixed90(b *testing.B) { benchmarkEngineParallelMixed(b, 90) }
func BenchmarkEngineParallelMixed50(b *testing.B) { benchmarkEngineParallelMixed(b, 50) }

// BenchmarkEngineHotKeyHerd coordinates all goroutines onto one key at a
// time: a shared counter rotates the hot key every 256 queries, and the
// cache (64 entries against a 400-key space) has long evicted a key by
// the time it comes around again, so each rotation begins with a
// thundering herd of identical cold misses. Singleflight turns each herd
// into ~one peel; the peels/query metric reports the measured collapse.
func BenchmarkEngineHotKeyHerd(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{CacheSize: 64})
	warmAllComponents(b, e) // cycle everything once so steady-state eviction is in play
	prewarmScratch(e, runtime.GOMAXPROCS(0))
	ctx := context.Background()
	pre := e.Stats()
	var round atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		nodes := make([]graph.Node, 1)
		for pb.Next() {
			r := round.Add(1) >> 8
			nodes[0] = graph.Node(int(r%benchComponents) * benchCompSize)
			if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := e.Stats()
	if q := st.Queries - pre.Queries; q > 0 {
		b.ReportMetric(float64(st.Computed-pre.Computed)/float64(q), "peels/query")
	}
}
