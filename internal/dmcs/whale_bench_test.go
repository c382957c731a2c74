package dmcs

import (
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// whaleGraph is the intra-query parallelism fixture: ONE connected
// expander-style component of n nodes (ring for connectivity plus two
// affine chord families, degree ~6). Unlike the ring+chord small-query
// fixture, whose BFS layers stay a few dozen nodes wide, the affine
// chords make frontiers grow multiplicatively — layers reach thousands
// of nodes within a few hops, which is the regime the round-synchronous
// kernels (parallel BFS, fused layer removal, parallel Θ-fill) target.
func whaleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(graph.Node(u), graph.Node((u+1)%n))
		b.AddEdge(graph.Node(u), graph.Node((7*u+3)%n))
		b.AddEdge(graph.Node(u), graph.Node((131*u+17)%n))
	}
	return b.Build()
}

// whaleNodes keeps the component above parallelMinNodes (8192) with
// headroom, while holding a full serial peel to a few milliseconds so
// the -cpu 1,8 CI comparison stays cheap.
const whaleNodes = 16384

// benchWhale measures one full community search on the whale component.
// Query node rotates so no per-node pathology dominates; the arena pool
// keeps steady-state allocation out of the measurement, same as the
// small-query suite. Building the fixture runs the collector often enough
// to empty that pool, so one untimed search refills it: CI gates
// allocs/op at 20 iterations, too few to hide an arena's first growth.
func benchWhale(b *testing.B, opts Options) {
	b.Helper()
	csr := graph.NewCSR(whaleGraph(whaleNodes))
	if _, err := SearchCSR(csr, []graph.Node{0}, VariantFPA, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := []graph.Node{graph.Node((i * 977) % whaleNodes)}
		if _, err := SearchCSR(csr, q, VariantFPA, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhaleFPAPruningSerial is the serial baseline for the headline
// whale workload: Section 5.7 layer pruning on a 16k-node component.
func BenchmarkWhaleFPAPruningSerial(b *testing.B) {
	benchWhale(b, Options{LayerPruning: true, Parallelism: 1})
}

// BenchmarkWhaleFPAPruningPar is the same workload with the parallel
// peel requested. Parallelism is capped at GOMAXPROCS, so under
// `-cpu 1` this resolves to the serial kernels plus dispatch checks —
// CI gates that it stays within noise of the Serial twin there — and
// under `-cpu 8` it exercises the gang kernels.
func BenchmarkWhaleFPAPruningPar(b *testing.B) {
	benchWhale(b, Options{LayerPruning: true, Parallelism: 8})
}

// BenchmarkWhaleFPASerial / Par: the non-pruned peel, where the Θ-heap
// drain is the serial residue and only the BFS and per-layer Θ-fill
// parallelize (Amdahl bounds this pair well below the pruning pair).
func BenchmarkWhaleFPASerial(b *testing.B) {
	benchWhale(b, Options{Parallelism: 1})
}

func BenchmarkWhaleFPAPar(b *testing.B) {
	benchWhale(b, Options{Parallelism: 8})
}

// BenchmarkWhaleFPAPruningLFR is the pruned serial peel on the shape the
// serving benchmark's whale has: the giant component of LFR Default() at
// whaleNodes, searched the way the engine does (prebuilt sub-CSR, owned
// arena), so nothing but the peel is timed. Unlike the degree-6 expander
// above it has degree skew (d_max 300) and two BFS layers that hold
// almost every node: the fixture on which the layering BFS's bottom-up
// step and phase 1's read-only sweep show whole.
func BenchmarkWhaleFPAPruningLFR(b *testing.B) {
	cfg := lfr.Default()
	cfg.N = whaleNodes
	res, err := lfr.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	csr := graph.NewCSR(res.G)
	whale, _ := csr.Component(0)
	if len(whale) < whaleNodes/2 {
		b.Fatalf("node 0 is outside the giant component (%d nodes)", len(whale))
	}
	sub, a := graph.NewSubCSR(csr, whale), NewArena()
	opts := Options{LayerPruning: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := []graph.Node{whale[(i*977)%len(whale)]}
		if _, err := SearchSub(a, sub, q, whale, VariantFPA, opts); err != nil {
			b.Fatal(err)
		}
	}
}
