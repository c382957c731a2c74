package dmcs

import (
	"testing"

	"dmcs/internal/graph"
)

// smallQueryGraph is the interactive-workload fixture: numComp disjoint
// communities of compSize nodes each (a ring plus two chord offsets, so
// every community is connected with average degree ~6). A query touches
// one community of compSize nodes inside a graph of numComp*compSize —
// the regime the query-scoped sub-CSR substrate targets, where per-query
// cost must be O(component), not O(graph).
func smallQueryGraph(numComp, compSize int) *graph.Graph {
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
	smallQueryComponents = 400
	smallQueryCompSize   = 80
)

// benchSmallQueries rotates single-node queries across the communities of
// the shared snapshot, measuring the per-query cost of the given variant.
func benchSmallQueries(b *testing.B, variant Variant, opts Options) {
	b.Helper()
	g := smallQueryGraph(smallQueryComponents, smallQueryCompSize)
	csr := graph.NewCSR(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := []graph.Node{graph.Node((i % smallQueryComponents) * smallQueryCompSize)}
		if _, err := SearchCSR(csr, q, variant, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallQueriesFPA is the headline interactive workload: many
// small FPA queries against one large (32k-node) multi-community graph.
func BenchmarkSmallQueriesFPA(b *testing.B) {
	benchSmallQueries(b, VariantFPA, Options{})
}

// BenchmarkSmallQueriesFPAPruning is the same workload through the
// Section 5.7 layer-pruning strategy (the paper's production setup).
func BenchmarkSmallQueriesFPAPruning(b *testing.B) {
	benchSmallQueries(b, VariantFPA, Options{LayerPruning: true})
}

// BenchmarkSmallQueriesNCA runs the non-articulation peel on the same
// workload — a full candidate rescan per removal, the case the geometric
// re-compaction of the peeling substrate targets.
func BenchmarkSmallQueriesNCA(b *testing.B) {
	benchSmallQueries(b, VariantNCA, Options{})
}

// TestSmallQueriesNCAAllocs: a warm-arena NCA search allocates its Result
// and Community and nothing else — the certificate tables (spanning tree,
// witnesses, k_{v,S}) live in the arena.
func TestSmallQueriesNCAAllocs(t *testing.T) {
	gateAllocs(t, BenchmarkSmallQueriesNCA, 2)
}

// gateAllocs fails t when bench allocates more than budget times per op.
// The pooled arenas make the count meaningless under the race detector,
// whose sync.Pool drops items at random.
func gateAllocs(t *testing.T, bench func(*testing.B), budget int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := testing.Benchmark(bench)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if got := r.AllocsPerOp(); got > budget {
		t.Fatalf("%d allocs/op, budget %d", got, budget)
	}
}

// BenchmarkSmallQueriesMulti exercises the Steiner-protect path: 3-node
// queries spread inside one community.
func BenchmarkSmallQueriesMulti(b *testing.B) {
	g := smallQueryGraph(smallQueryComponents, smallQueryCompSize)
	csr := graph.NewCSR(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % smallQueryComponents) * smallQueryCompSize
		q := []graph.Node{
			graph.Node(base),
			graph.Node(base + smallQueryCompSize/3),
			graph.Node(base + 2*smallQueryCompSize/3),
		}
		if _, err := SearchCSR(csr, q, VariantFPA, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
