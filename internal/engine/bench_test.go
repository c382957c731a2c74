package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// smallQueryEngineGraph mirrors the internal/dmcs small-query fixture:
// many disjoint ring+chord communities, so each query's answer lives in a
// component that is a tiny fraction of the graph.
func smallQueryEngineGraph(numComp, compSize int) *graph.Graph {
	b := graph.NewBuilder(numComp * compSize)
	for c := 0; c < numComp; c++ {
		base := c * compSize
		for i := 0; i < compSize; i++ {
			u := graph.Node(base + i)
			b.AddEdge(u, graph.Node(base+(i+1)%compSize))
			b.AddEdge(u, graph.Node(base+(i+7)%compSize))
			b.AddEdge(u, graph.Node(base+(i+13)%compSize))
		}
	}
	return b.Build()
}

const (
	benchComponents = 400
	benchCompSize   = 80
)

// The gate tests in this package hold a benchmark to a budget: each runs
// its benchmark through testing.Benchmark and reads the result. Allocation
// gates skip under the race detector only; gates that read a clock or
// depend on how goroutines interleave also skip under -short.

func mustBench(t *testing.T, bench func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	r := testing.Benchmark(bench)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	return r
}

func gateAllocs(t *testing.T, r testing.BenchmarkResult, budget int64) {
	t.Helper()
	if got := r.AllocsPerOp(); got > budget {
		t.Fatalf("%d allocs/op, budget %d", got, budget)
	}
}

func skipAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func skipTimingGate(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing gate: needs an uninstrumented binary and seconds of benchtime")
	}
}

// gateRatio fails t when a's ns/op exceeds factor times b's, and returns
// the last result of each. Another tenant on the box only ever slows a run
// down, so each side is the minimum over alternating rounds: three, and up
// to three more while the bound does not hold.
func gateRatio(t *testing.T, factor float64, a, b func(*testing.B)) (ra, rb testing.BenchmarkResult) {
	t.Helper()
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	minA, minB := math.Inf(1), math.Inf(1)
	for round := 0; round < 6; round++ {
		ra, rb = mustBench(t, a), mustBench(t, b)
		minA, minB = min(minA, nsPerOp(ra)), min(minB, nsPerOp(rb))
		if round >= 2 && minA <= factor*minB {
			return ra, rb
		}
	}
	t.Fatalf("%.0f ns/op against %.0f ns/op: ratio %.2f, bound %.2f", minA, minB, minA/minB, factor)
	return
}

// BenchmarkEngineSmallQueries measures computed (cache-off) engine
// serving of the interactive workload: per-op cost and allocations are
// the steady-state price of one small query against a large graph.
func BenchmarkEngineSmallQueries(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1, CacheSize: -1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Nodes: []graph.Node{graph.Node((i % benchComponents) * benchCompSize)}}
		if _, err := e.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSmallQueriesNCA is the same computed workload through
// the articulation-recomputation variant.
func BenchmarkEngineSmallQueriesNCA(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1, CacheSize: -1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{
			Nodes:   []graph.Node{graph.Node((i % benchComponents) * benchCompSize)},
			Variant: dmcs.VariantNCA,
		}
		if _, err := e.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineApplyUpdates is the mutation-throughput benchmark: each
// op applies one 8-edge toggle batch confined to a single component of a
// large many-component graph. The per-op cost is the paged merge (the
// page table and the one or two row pages the batch touches), the
// re-flood of the one component, and the snapshot restamp: the batch
// changes no component's members, so the partition is shared.
func BenchmarkEngineApplyUpdates(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Consecutive op pairs (i even/odd) remove then restore the same
		// 8 edges, so the graph returns to its start state every two ops
		// and the measured cost never drifts with b.N.
		comp := (i / 2) % benchComponents
		base := graph.Node(comp * benchCompSize)
		var batch Batch
		for k := 0; k < 8; k++ {
			u := base + graph.Node(((i/2)*11+k*5)%(benchCompSize-1))
			if i%2 == 0 {
				batch.RemoveEdge(u, u+1)
			} else {
				batch.AddEdge(u, u+1)
			}
		}
		e.Apply(batch)
	}
}

// TestEngineApplyUpdatesAllocs: an Apply on the 400-component fixture
// measures 19 allocs/op (the benchmark's own batch staging 4; paged merge
// 11: the edit lists, the page table and two arrays per rebuilt page; the
// shared partition 1, its carried map; snapshot restamp 3: the snapshot,
// its record pointers and one fresh version record per touched
// component), a count that does not grow with the component count, so a
// per-component or per-edge allocation coming back trips the budget, and
// so does a fall back to the general partition update (another 11). The
// byte bound is TestApplyBytesProportionalToBatch.
func TestEngineApplyUpdatesAllocs(t *testing.T) {
	skipAllocGate(t)
	gateAllocs(t, mustBench(t, BenchmarkEngineApplyUpdates), 24)
}

// BenchmarkEngineQueryUnderChurn measures query latency while a
// background writer continuously applies mutation batches — the
// query-during-update serving cost, including the version swaps and
// per-version sub-CSR rebuilds the churn forces.
func BenchmarkEngineQueryUnderChurn(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 2})
	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Churn component 0 only; queries spread across the rest, so
			// the benchmark isolates versioning overhead from result
			// changes. Each removed edge is restored on the next round,
			// keeping the workload steady however long the timer runs.
			var batch Batch
			u := graph.Node(((i / 2) * 7) % (benchCompSize - 1))
			if i%2 == 0 {
				batch.RemoveEdge(u, u+1)
			} else {
				batch.AddEdge(u, u+1)
			}
			e.Apply(batch)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Nodes: []graph.Node{graph.Node((1 + i%(benchComponents-1)) * benchCompSize)}}
		if _, err := e.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// benchmarkQueryUnderChurnProfile is the query-under-churn suite behind
// the BenchmarkEngineQueryUnderChurn* family: a background writer
// toggles edges inside the first `churned` components (sleeping `pace`
// between batches — 0 means continuous) while the measured loop sends
// `coldPct`% of its queries into the churned components and the rest
// into untouched ones. The cache is fully warmed first, so the reported
// hit_ratio is the direct measure of component-scoped invalidation:
// untouched components keep their versions across every Apply and must
// keep hitting, churned components go cold on each touch. p99_ns is the
// engine's computed-search p99 over the run, the latency cost of the
// misses the churn does force.
func benchmarkQueryUnderChurnProfile(b *testing.B, churned, coldPct int, pace time.Duration) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 2})
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < benchComponents; c++ {
		nodes[0] = graph.Node(c * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			comp := (i / 2) % churned
			base := graph.Node(comp * benchCompSize)
			u := base + graph.Node(((i/2)*7)%(benchCompSize-1))
			var batch Batch
			if i%2 == 0 {
				batch.RemoveEdge(u, u+1)
			} else {
				batch.AddEdge(u, u+1)
			}
			e.Apply(batch)
			if pace > 0 {
				time.Sleep(pace)
			}
		}
	}()
	before := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var comp int
		if i%100 < coldPct {
			comp = i % churned
		} else {
			comp = churned + i%(benchComponents-churned)
		}
		nodes[0] = graph.Node(comp * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	st := e.Stats()
	if served := st.Queries - before.Queries; served > 0 {
		b.ReportMetric(float64(st.CacheHits-before.CacheHits)/float64(served), "hit_ratio")
	}
	b.ReportMetric(float64(st.P99.Nanoseconds()), "p99_ns")
	// Churn evidence: components actually superseded while the timer ran.
	// A hit_ratio of ~1.0 only means something if this is non-zero — it
	// rules out a starved writer making the ratio gate vacuous.
	b.ReportMetric(float64(st.Invalidated-before.Invalidated), "invalidated")
}

// BenchmarkEngineQueryUnderChurnWarmMajority is the gated steady-state
// profile: continuous Apply churn confined to 4 of 400 components, 95%
// of queries on untouched components.
func BenchmarkEngineQueryUnderChurnWarmMajority(b *testing.B) {
	benchmarkQueryUnderChurnProfile(b, 4, 5, 0)
}

// TestEngineChurnHitRatioGate: component-scoped versions keep the cache
// warm under churn — untouched components keep hitting, so the steady-state
// hit ratio stays >= 0.90. invalidated >= 1 demands real supersessions
// during the timed run, so a starved writer cannot make the floor vacuous.
func TestEngineChurnHitRatioGate(t *testing.T) {
	skipTimingGate(t)
	r := mustBench(t, BenchmarkEngineQueryUnderChurnWarmMajority)
	if hit, inv := r.Extra["hit_ratio"], r.Extra["invalidated"]; hit < 0.90 || inv < 1 {
		t.Fatalf("hit_ratio %.3f with %.0f invalidations, want >= 0.90 with >= 1", hit, inv)
	}
}

// BenchmarkEngineQueryUnderChurnColdMajority skews 80% of queries into
// the churned components: the recorded hit_ratio/p99 pair shows what
// versioning costs when locality is bad (recorded, not gated).
func BenchmarkEngineQueryUnderChurnColdMajority(b *testing.B) {
	benchmarkQueryUnderChurnProfile(b, 4, 80, 0)
}

// BenchmarkEngineQueryUnderChurnWarmThrottled is the warm-majority skew
// at a low update rate (200µs between batches) — the sweep point that
// separates churn-rate effects from locality effects.
func BenchmarkEngineQueryUnderChurnWarmThrottled(b *testing.B) {
	benchmarkQueryUnderChurnProfile(b, 4, 5, 200*time.Microsecond)
}

// BenchmarkEngineQueryUnderChurnScattered spreads continuous churn over
// 64 components with a 50/50 query split — wide update locality, the
// worst realistic case for per-component retention.
func BenchmarkEngineQueryUnderChurnScattered(b *testing.B) {
	benchmarkQueryUnderChurnProfile(b, 64, 50, 0)
}

// BenchmarkEngineSmallQueriesCacheHit is the steady-state serving path: a
// warm LRU answers every query. Its allocs/op is the engine's zero-alloc
// contract (TestEngineSteadyStateZeroAlloc).
func BenchmarkEngineSmallQueriesCacheHit(b *testing.B) {
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1})
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < benchComponents; c++ {
		nodes[0] = graph.Node(c * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0] = graph.Node((i % benchComponents) * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkCacheHitInject is BenchmarkEngineSmallQueriesCacheHit with
// the fault-injection registry in a controlled state: the cache-hit
// path passes the faultinject.EngineSearch point on every query, and
// the registry's zero-cost-when-disabled contract says neither the
// disarmed state nor an armed-elsewhere state may add an allocation.
func benchmarkCacheHitInject(b *testing.B, arm bool) {
	faultinject.Reset()
	if arm {
		// Arm a DIFFERENT point: the hit path now pays the armed-registry
		// slow branch (one extra pointer load) but injects nothing.
		faultinject.Set(faultinject.ServerRespond, faultinject.Injection{Drop: true})
		b.Cleanup(faultinject.Reset)
	}
	e := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1})
	ctx := context.Background()
	nodes := make([]graph.Node, 1)
	for c := 0; c < benchComponents; c++ {
		nodes[0] = graph.Node(c * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0] = graph.Node((i % benchComponents) * benchCompSize)
		if _, err := e.Search(ctx, Query{Nodes: nodes}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheHitInjectOff is the production state: registry
// fully disarmed.
func BenchmarkEngineCacheHitInjectOff(b *testing.B) { benchmarkCacheHitInject(b, false) }

// BenchmarkEngineCacheHitInjectArmed is the chaos-elsewhere state: an
// injection armed on an unrelated point while this path serves hits.
func BenchmarkEngineCacheHitInjectArmed(b *testing.B) { benchmarkCacheHitInject(b, true) }

// TestEngineCacheHitInjectGate: the injection registry is free on the
// serving path — a warm hit allocates nothing with the registry disarmed
// or armed at an unrelated point, and the armed check costs at most 1.25x.
func TestEngineCacheHitInjectGate(t *testing.T) {
	skipTimingGate(t)
	armed, off := gateRatio(t, 1.25, BenchmarkEngineCacheHitInjectArmed, BenchmarkEngineCacheHitInjectOff)
	gateAllocs(t, armed, 0)
	gateAllocs(t, off, 0)
}
