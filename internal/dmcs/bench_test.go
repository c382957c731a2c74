package dmcs

import (
	"fmt"
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// benchGraph generates a mid-size LFR graph once per benchmark binary.
func benchGraph(b *testing.B, n int) (*graph.Graph, []graph.Node) {
	b.Helper()
	cfg := lfr.Default()
	cfg.N = n
	cfg.MaxDeg = 100
	cfg.MaxComm = 300
	res, err := lfr.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.G, []graph.Node{res.Communities[0][0]}
}

// benchWeightSeed seeds the edge weights of the weighted benchmarks.
const benchWeightSeed = 7

// weightedBenchGraph is benchGraph with a deterministic random weight in
// (0.5, 2.5) on every edge — the workload where the flat CSR substrate
// replaces one hashed map lookup per edge-weight evaluation.
func weightedBenchGraph(b *testing.B, n int) (*graph.Graph, []graph.Node) {
	b.Helper()
	g, q := benchGraph(b, n)
	return reweighted(g, benchWeightSeed), q
}

// BenchmarkFPA measures the paper's headline algorithm (with pruning, as
// run in the evaluation).
func BenchmarkFPA(b *testing.B) {
	g, q := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPA(g, q, Options{LayerPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPANoPruning is the Figure 13 ablation partner: FPA without the
// layer-based pruning strategy.
func BenchmarkFPANoPruning(b *testing.B) {
	g, q := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPA(g, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPADMG is the Figure 14 ablation: the unstable Λ pick forces a
// full candidate rescan per removal (the paper reports ~150× slower).
func BenchmarkFPADMG(b *testing.B) {
	g, q := benchGraph(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPADMG(g, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNCA measures the non-articulation peel: a degree-class heap
// pick and a spanning tree re-hung locally per removal, no candidate scan
// and no Tarjan pass.
func BenchmarkNCA(b *testing.B) {
	g, q := benchGraph(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NCA(g, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNCADR is the Figure 14 (a)+(d) cell.
func BenchmarkNCADR(b *testing.B) {
	g, q := benchGraph(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NCADR(g, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNCATable2 is NCA's scaling table: Table-2 LFR graphs
// (lfr.Default(), seed 1) at n = 1000, 4000 and 8000, unweighted (the
// degree-class index) and with weightedBenchGraph's weights (the
// candidate-list scan), each peeled by NCA and NCA-DR from the five
// one-node queries i·n/5. An op runs all five; ms/query is its mean per
// query. One untimed op first builds the graph's memoised snapshot and
// partition.
func BenchmarkNCATable2(b *testing.B) {
	for _, n := range []int{1000, 4000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := lfr.Default()
			cfg.N = n
			res, err := lfr.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range []struct {
				name string
				g    *graph.Graph
			}{{"unweighted", res.G}, {"weighted", reweighted(res.G, benchWeightSeed)}} {
				for _, variant := range []Variant{VariantNCA, VariantNCADR} {
					b.Run(fmt.Sprintf("%s/%v", w.name, variant), func(b *testing.B) {
						op := func() {
							for i := 0; i < 5; i++ {
								if _, err := Search(w.g, []graph.Node{graph.Node(i * n / 5)}, variant, Options{}); err != nil {
									b.Fatal(err)
								}
							}
						}
						op()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							op()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(5*b.N), "ms/query")
					})
				}
			}
		})
	}
}

// BenchmarkWeightedFPACSR measures the production weighted search through
// the Graph entry point: the graph's own snapshot and memoised partition,
// a peel over flat arrays.
func BenchmarkWeightedFPACSR(b *testing.B) {
	g, q := weightedBenchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPA(g, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedFPACSRPrebuilt is the same query through SearchCSR,
// which floods and sorts the query's component per call.
func BenchmarkWeightedFPACSRPrebuilt(b *testing.B) {
	g, q := weightedBenchGraph(b, 5000)
	csr := graph.NewCSR(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchCSR(csr, q, VariantFPA, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedFPAPruningCSR measures the layer-pruning strategy (the
// paper's production configuration) on weighted graphs.
func BenchmarkWeightedFPAPruningCSR(b *testing.B) {
	g, q := weightedBenchGraph(b, 5000)
	csr := graph.NewCSR(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchCSR(csr, q, VariantFPA, Options{LayerPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedNCACSR measures the weighted NCA loop, which keeps the
// per-iteration candidate scan over k_{v,S} of every alive node — the
// heaviest edge-weight consumer of the four variants.
func BenchmarkWeightedNCACSR(b *testing.B) {
	g, q := weightedBenchGraph(b, 1000)
	csr := graph.NewCSR(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchCSR(csr, q, VariantNCA, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPAMultiQuery measures the Steiner-merge multi-query path.
func BenchmarkFPAMultiQuery(b *testing.B) {
	cfg := lfr.Default()
	cfg.N = 5000
	cfg.MaxDeg = 100
	cfg.MaxComm = 300
	res, err := lfr.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := append([]graph.Node(nil), res.Communities[0][:4]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPA(res.G, q, Options{LayerPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}
