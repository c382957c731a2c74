package modularity

import (
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/graph"
)

func randomSet(rng *rand.Rand, n, size int) []graph.Node {
	perm := rng.Perm(n)
	out := make([]graph.Node, 0, size)
	for _, u := range perm[:size] {
		out = append(out, graph.Node(u))
	}
	return out
}

// pairCountStats is the reference the packed sweep is checked against:
// the definition of (l_C, d_C, |C|) counted pair by pair.
func pairCountStats(g *graph.Graph, c []graph.Node) Stats {
	var set []graph.Node
	for _, u := range c {
		if !slices.Contains(set, u) {
			set = append(set, u)
		}
	}
	s := Stats{Size: len(set)}
	for i, u := range set {
		s.D += int64(g.Degree(u))
		for _, v := range set[i+1:] {
			if g.HasEdge(u, v) {
				s.L++
			}
		}
	}
	return s
}

func TestStatsOfCSRMatchesStatsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					b.AddEdge(graph.Node(u), graph.Node(v))
				}
			}
		}
		g := b.Build()
		csr := graph.NewCSR(g)
		set := randomSet(rng, n, 1+rng.Intn(n))
		want := pairCountStats(g, set)
		if got := StatsOfCSR(csr, set); want != got {
			t.Fatalf("trial %d: StatsOfCSR=%+v want %+v", trial, got, want)
		}
		if got := StatsOf(g, set); want != got {
			t.Fatalf("trial %d: StatsOf=%+v want %+v", trial, got, want)
		}
		// duplicates must be counted once
		dup := append(append([]graph.Node(nil), set...), set[0], set[len(set)-1])
		if got := StatsOfCSR(csr, dup); got != want {
			t.Fatalf("trial %d: duplicates changed stats: %+v want %+v", trial, got, want)
		}
	}
}

// TestCSRGoodnessMatchesGraphForms: the graph and CSR forms are the parts
// forms over the pair-counted statistics, bit for bit.
func TestCSRGoodnessMatchesGraphForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(30)
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(graph.Node(u), graph.Node(v))
			}
		}
	}
	g := b.Build()
	csr := graph.NewCSR(g)
	m := int64(g.NumEdges())
	for trial := 0; trial < 10; trial++ {
		set := randomSet(rng, 30, 2+rng.Intn(20))
		ref := pairCountStats(g, set)
		if got, want := Classic(g, set), ClassicParts(ref, m); got != want {
			t.Fatalf("Classic=%v want %v", got, want)
		}
		if got, want := Density(g, set), DensityParts(ref, m); got != want {
			t.Fatalf("Density=%v want %v", got, want)
		}
		if got, want := DensityCSR(csr, set), DensityParts(ref, m); got != want {
			t.Fatalf("DensityCSR=%v want %v", got, want)
		}
		if got, want := GeneralizedDensity(g, set, 1.5), GeneralizedDensityParts(ref, m, 1.5); got != want {
			t.Fatalf("GeneralizedDensity=%v want %v", got, want)
		}
	}
}
