package dmcs

import (
	"math/rand"
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

// weightedBenchGraph is benchGraph with a deterministic random weight in
// (0.5, 2.5) on every edge — the workload where the flat CSR substrate
// replaces one hashed map lookup per edge-weight evaluation.
func weightedBenchGraph(b *testing.B, n int) (*graph.Graph, []graph.Node) {
	b.Helper()
	g, q := benchGraph(b, n)
	rng := rand.New(rand.NewSource(7))
	wb := graph.NewBuilder(g.NumNodes())
	g.Edges(func(u, v graph.Node) bool {
		wb.SetWeight(u, v, 0.5+2*rng.Float64())
		return true
	})
	return wb.Build(), q
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

// BenchmarkNCA measures the non-articulation peel (scan per removal,
// certificates instead of a Tarjan pass per removal).
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

// BenchmarkWeightedFPALegacy runs the frozen Graph/View reference
// implementation (legacy_ref_test.go) on the identical workload — every
// k_{v,S} and w_C evaluation is a Graph.EdgeWeight lookup (a binary search
// into the packed row; a hashed map lookup before Graphs were born
// packed). The gap to BenchmarkWeightedFPACSR* is the win of peeling over
// the packed weights in place.
func BenchmarkWeightedFPALegacy(b *testing.B) {
	g, q := weightedBenchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacySearch(g, q, VariantFPA, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedFPAPruningCSR / ...Legacy compare the layer-pruning
// strategy (the paper's production configuration) on weighted graphs.
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

func BenchmarkWeightedFPAPruningLegacy(b *testing.B) {
	g, q := weightedBenchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacySearch(g, q, VariantFPA, Options{LayerPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedNCACSR / ...Legacy compare the quadratic NCA loop,
// whose per-iteration candidate scan evaluates k_{v,S} for every alive
// node — the heaviest edge-weight consumer of the four variants.
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

func BenchmarkWeightedNCALegacy(b *testing.B) {
	g, q := weightedBenchGraph(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacySearch(g, q, VariantNCA, Options{}); err != nil {
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
