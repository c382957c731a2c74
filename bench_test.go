// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per experiment. Each iteration runs
// the experiment at a reduced-but-representative scale so the whole suite
// finishes on a laptop; pass the paper-scale parameters through
// cmd/experiments for full runs (see EXPERIMENTS.md for recorded results).
package dmcs_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"dmcs"
	"dmcs/internal/harness"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
)

// benchConfig is the reduced configuration shared by the experiment
// benchmarks.
func benchConfig() harness.Config {
	return harness.Config{
		K:            3,
		NumQuerySets: 5,
		QuerySize:    1,
		Timeout:      30 * time.Second,
		Seed:         1,
		Out:          io.Discard,
	}
}

// benchLFR is the reduced Table 2 configuration.
func benchLFR() lfr.Config {
	cfg := lfr.Default()
	cfg.N = 1000
	cfg.MaxDeg = 100
	cfg.MaxComm = 300
	return cfg
}

// standinScale is the node count used for the dblp/youtube/livejournal
// stand-ins in benchmarks.
const standinScale = 2000

func BenchmarkTable1DatasetStats(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Table1(standinScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2SyntheticConfig(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CommunityDiameters(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig4(standinScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5RemovalOrders(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8EffectivenessSweeps(b *testing.B) {
	c := benchConfig()
	sweeps := []harness.LFRSweep{{Param: "mu", Values: []float64{0.2}}}
	algos := []string{harness.AlgoKC, harness.AlgoKT, harness.AlgoHighCore, harness.AlgoHighTruss, harness.AlgoFPA}
	for i := 0; i < b.N; i++ {
		if err := c.Fig8and9(benchLFR(), sweeps, algos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9EfficiencySweeps(b *testing.B) {
	// Figure 9 reports the running times of the Figure 8 sweeps; the
	// bench exercises the full roster including the slow NCA path on a
	// smaller graph.
	c := benchConfig()
	cfg := benchLFR()
	cfg.N = 600
	sweeps := []harness.LFRSweep{{Param: "davg", Values: []float64{20}}}
	for i := 0; i < b.N; i++ {
		if err := c.Fig8and9(cfg, sweeps, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10MultiQuery(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig10(benchLFR(), []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Scalability(b *testing.B) {
	c := benchConfig()
	algos := []string{harness.AlgoKC, harness.AlgoHighCore, harness.AlgoFPA}
	for i := 0; i < b.N; i++ {
		if err := c.Fig11(benchLFR(), []int{1000, 2000}, algos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ObjectiveAblation(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig12(benchLFR()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13PruningAblation(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig13(benchLFR()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14VariantMatrix(b *testing.B) {
	c := benchConfig()
	cfg := benchLFR()
	cfg.N = 600 // NCA variants are quadratic; keep iterations short
	for i := 0; i < b.N; i++ {
		if err := c.Fig14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15SmallRealGraphs(b *testing.B) {
	c := benchConfig()
	// skip the slowest baselines (GN/clique/CNM) in the bench loop; the
	// full roster runs via cmd/experiments -exp fig15
	algos := []string{
		harness.AlgoKC, harness.AlgoKT, harness.AlgoKECC, harness.AlgoICWI,
		harness.AlgoHuang, harness.AlgoWu, harness.AlgoHighCore,
		harness.AlgoHighTruss, harness.AlgoNCA, harness.AlgoFPA,
	}
	for i := 0; i < b.N; i++ {
		if err := c.Fig15and16(algos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17LargeStandins(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig17and18(standinScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19ParameterK(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.Fig19(standinScale, []int{3, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudy(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := c.CaseStudy(standinScale); err != nil {
			b.Fatal(err)
		}
	}
}

// engineWorkload generates the shared LFR graph and FPA query roster the
// engine benchmarks answer — the many-queries-one-graph workload.
func engineWorkload(b *testing.B) (*lfr.Result, []dmcs.EngineQuery) {
	b.Helper()
	res, err := lfr.Generate(benchLFR())
	if err != nil {
		b.Fatal(err)
	}
	var qs []dmcs.EngineQuery
	for _, size := range []int{1, 2, 4} {
		for _, q := range queries.Generate(res.G, res.Communities, queries.Options{
			NumSets: 16, Size: size, Seed: int64(size),
		}) {
			qs = append(qs, dmcs.EngineQuery{Nodes: q})
		}
	}
	if len(qs) == 0 {
		b.Fatal("no query sets generated")
	}
	return res, qs
}

// BenchmarkEngineSerialFPA is the baseline: the same query roster answered
// one at a time through the one-shot entry point.
func BenchmarkEngineSerialFPA(b *testing.B) {
	res, qs := engineWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := dmcs.FPA(res.G, q.Nodes, dmcs.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkEngineBatch answers the roster through the shared-snapshot
// engine at increasing worker counts. The cache is disabled so every
// iteration measures real searches; throughput should scale with workers
// up to the core count.
func BenchmarkEngineBatch(b *testing.B) {
	res, qs := engineWorkload(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := dmcs.NewEngine(res.G, dmcs.EngineOptions{Workers: workers, CacheSize: -1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range eng.SearchBatch(context.Background(), qs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkRootSearchFPAPruningLFR is the paper's efficiency experiment
// through the library's front door, as dmcsbench's paper-lfr workload
// runs it: lfr.Default(), single-node query sets, FPA with layer pruning
// through the one-shot Search on a Graph.
func BenchmarkRootSearchFPAPruningLFR(b *testing.B) {
	res, err := lfr.Generate(lfr.Default())
	if err != nil {
		b.Fatal(err)
	}
	qs := queries.Generate(res.G, res.Communities, queries.Options{NumSets: 128, Size: 1, TrussK: 4, Seed: 1})
	if len(qs) == 0 {
		b.Fatal("no query sets generated")
	}
	opts := dmcs.Options{LayerPruning: true}
	for _, q := range qs[:4] { // grow the pooled arena, memoise the partition
		if _, err := dmcs.Search(res.G, q, dmcs.VariantFPA, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmcs.Search(res.G, qs[i%len(qs)], dmcs.VariantFPA, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRootSearchFPAPruningLFRAllocs: a Graph is packed when it is built
// and partitioned on first use, so a one-shot Search pays for the peel and
// allocates its Result and Community. A per-call CSR pack or component
// flood coming back shows as 6 allocs and 439 KB per op.
func TestRootSearchFPAPruningLFRAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := testing.Benchmark(BenchmarkRootSearchFPAPruningLFR)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if got := r.AllocsPerOp(); got > 2 {
		t.Fatalf("%d allocs/op, budget 2", got)
	}
}

// reweight copies g with a deterministic pseudo-random weight in
// (0.5, 2.5) on every edge (LCG keyed by seed), so the weighted
// benchmarks below all measure the same workload shape.
func reweight(g *dmcs.Graph, seed uint64) *dmcs.Graph {
	wb := dmcs.NewBuilder(g.NumNodes())
	g.Edges(func(u, v dmcs.Node) bool {
		seed = seed*6364136223846793005 + 1442695040888963407
		wb.SetWeight(u, v, 0.5+2*float64(seed>>11)/float64(1<<53))
		return true
	})
	return wb.Build()
}

// BenchmarkWeightedSearchFPA measures the public one-shot entry point on
// a weighted graph: the peel reads the graph's packed weights.
func BenchmarkWeightedSearchFPA(b *testing.B) {
	res, _ := engineWorkload(b)
	g := reweight(res.G, 1)
	q := []dmcs.Node{res.Communities[0][0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmcs.FPA(g, q, dmcs.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedEngineBatch answers a weighted-graph roster through
// the shared-snapshot engine: the snapshot's packed weights serve every
// query, so the per-query cost is the pure flat-array peel.
func BenchmarkWeightedEngineBatch(b *testing.B) {
	res, qs := engineWorkload(b)
	eng := dmcs.NewEngine(reweight(res.G, 2), dmcs.EngineOptions{CacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range eng.SearchBatch(context.Background(), qs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkEngineCacheHit measures the repeated-roster path: after one
// warm-up batch, every query is answered from the LRU cache.
func BenchmarkEngineCacheHit(b *testing.B) {
	res, qs := engineWorkload(b)
	eng := dmcs.NewEngine(res.G, dmcs.EngineOptions{})
	eng.SearchBatch(context.Background(), qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range eng.SearchBatch(context.Background(), qs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}
