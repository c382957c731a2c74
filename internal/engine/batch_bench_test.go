package engine

import (
	"context"
	"testing"

	"dmcs/internal/graph"
)

// skewedBatchGraph is the fused-batch fixture: component 0 is a 2048-node
// expander-style whale (ring plus affine chords), followed by numComp
// small ring+chord communities of compSize nodes. The whale absorbs the
// hot 80% of a skewed batch; the tail spreads over the small components.
func skewedBatchGraph(whale, numComp, compSize int) *graph.Graph {
	b := graph.NewBuilder(whale + numComp*compSize)
	for u := 0; u < whale; u++ {
		b.AddEdge(graph.Node(u), graph.Node((u+1)%whale))
		b.AddEdge(graph.Node(u), graph.Node((7*u+3)%whale))
		b.AddEdge(graph.Node(u), graph.Node((131*u+17)%whale))
	}
	for c := 0; c < numComp; c++ {
		base := whale + c*compSize
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
	skewWhaleNodes = 2048
	skewComponents = 200
	skewCompSize   = 80
	skewBatchSize  = 128
)

// skewedBatch builds one 128-query batch for iteration i: 80% of the
// queries hit the whale component through 8 distinct hot nodes (heavy
// intra-batch duplication — the hot-key shape production batches have),
// 20% spread across distinct small components. The node choices rotate
// with i so successive iterations present fresh cache keys and the
// benchmark keeps measuring computation, not replay.
func skewedBatch(i int) []Query {
	qs := make([]Query, 0, skewBatchSize)
	hotN := skewBatchSize * 8 / 10
	for j := 0; j < hotN; j++ {
		u := graph.Node((i*8 + j%8) * 13 % skewWhaleNodes)
		qs = append(qs, Query{Nodes: []graph.Node{u}})
	}
	for j := hotN; j < skewBatchSize; j++ {
		c := (i*(skewBatchSize-hotN) + j) % skewComponents
		u := graph.Node(skewWhaleNodes + c*skewCompSize + (i+j)%skewCompSize)
		qs = append(qs, Query{Nodes: []graph.Node{u}})
	}
	return qs
}

// BenchmarkEngineSkewedBatchFused measures the fused SearchBatch on the
// skewed workload: one admission snapshot, intra-batch dedup (the 102
// hot queries collapse onto 8 peels), component-ordered draining.
func BenchmarkEngineSkewedBatchFused(b *testing.B) {
	e := New(skewedBatchGraph(skewWhaleNodes, skewComponents, skewCompSize), Options{Workers: 4})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range e.SearchBatch(ctx, skewedBatch(i)) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkEngineSkewedBatchSolo issues the batch as a serial per-query
// Search loop — the client-side alternative to SearchBatch.
func BenchmarkEngineSkewedBatchSolo(b *testing.B) {
	e := New(skewedBatchGraph(skewWhaleNodes, skewComponents, skewCompSize), Options{Workers: 4})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range skewedBatch(i) {
			if _, err := e.Search(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestEngineSkewedBatchFusedGate: the fused batch must not lose to the
// client-side alternative, the same queries through a serial Search loop
// (it measures about 0.55x).
func TestEngineSkewedBatchFusedGate(t *testing.T) {
	skipTimingGate(t)
	gateRatio(t, 1.0, BenchmarkEngineSkewedBatchFused, BenchmarkEngineSkewedBatchSolo)
}
