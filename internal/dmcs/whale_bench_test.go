package dmcs

import (
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// whaleGraph is the large-component fixture: ONE connected
// expander-style component of n nodes (ring for connectivity plus two
// affine chord families, degree ~6). Unlike the ring+chord small-query
// fixture, whose BFS layers stay a few dozen nodes wide, the affine
// chords make frontiers grow multiplicatively — layers reach thousands
// of nodes within a few hops.
func whaleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(graph.Node(u), graph.Node((u+1)%n))
		b.AddEdge(graph.Node(u), graph.Node((7*u+3)%n))
		b.AddEdge(graph.Node(u), graph.Node((131*u+17)%n))
	}
	return b.Build()
}

// whaleNodes makes the component 200 times a small-query community
// while holding a full peel to a few milliseconds.
const whaleNodes = 16384

// benchWhale measures one full community search on the whale component.
// Query node rotates so no per-node pathology dominates; the arena pool
// keeps steady-state allocation out of the measurement, same as the
// small-query suite. Building the fixture runs the collector often enough
// to empty that pool, so one untimed search refills it: allocs/op is
// gated (TestWhaleFPAPruningAllocs), and an arena's first growth must not
// count against it.
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

// BenchmarkWhaleFPAPruningSerial is the headline whale workload: Section
// 5.7 layer pruning on a 16k-node component.
func BenchmarkWhaleFPAPruningSerial(b *testing.B) {
	benchWhale(b, Options{LayerPruning: true})
}

// TestWhaleFPAPruningAllocs: the pruned whale peel allocates its Result
// and Community and nothing else — per-layer scratch stays in the arena.
func TestWhaleFPAPruningAllocs(t *testing.T) {
	gateAllocs(t, BenchmarkWhaleFPAPruningSerial, 2)
}

// BenchmarkWhaleFPASerial is the non-pruned peel, where the Θ-heap drain
// dominates.
func BenchmarkWhaleFPASerial(b *testing.B) {
	benchWhale(b, Options{})
}

// BenchmarkWhaleFPAPruningLFR is the pruned peel on the shape the
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
