package centrality

import (
	"math"
	"sort"
	"testing"

	"dmcs/internal/graph"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.Node(i))
	}
	return b.Build()
}

func TestBetweennessPath(t *testing.T) {
	// P4 (0-1-2-3): cb(0)=cb(3)=0, cb(1)=cb(2)=2
	cb := Betweenness(path(4))
	want := []float64{0, 2, 2, 0}
	for i := range want {
		if math.Abs(cb[i]-want[i]) > 1e-9 {
			t.Fatalf("cb=%v want %v", cb, want)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// star with 5 leaves: center mediates C(5,2)=10 pairs
	cb := Betweenness(star(6))
	if math.Abs(cb[0]-10) > 1e-9 {
		t.Fatalf("center cb=%v want 10", cb[0])
	}
	for i := 1; i < 6; i++ {
		if cb[i] != 0 {
			t.Fatalf("leaf cb=%v want 0", cb[i])
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.Node(i), graph.Node((i+1)%5))
	}
	cb := Betweenness(b.Build())
	for i := 1; i < 5; i++ {
		if math.Abs(cb[i]-cb[0]) > 1e-9 {
			t.Fatalf("cycle betweenness should be uniform: %v", cb)
		}
	}
}

func TestEigenvectorStar(t *testing.T) {
	// star: center has the highest eigenvector centrality
	ev := Eigenvector(star(8), 200, 1e-10)
	for i := 1; i < 8; i++ {
		if ev[i] >= ev[0] {
			t.Fatalf("leaf %d centrality %v >= center %v", i, ev[i], ev[0])
		}
		if math.Abs(ev[i]-ev[1]) > 1e-6 {
			t.Fatalf("leaves should be symmetric: %v", ev)
		}
	}
}

func TestEigenvectorCliqueUniform(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	ev := Eigenvector(b.Build(), 200, 1e-10)
	for i := 1; i < 5; i++ {
		if math.Abs(ev[i]-ev[0]) > 1e-6 {
			t.Fatalf("clique centrality should be uniform: %v", ev)
		}
	}
	// unit norm
	var norm float64
	for _, x := range ev {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-6 {
		t.Fatalf("norm=%v want 1", norm)
	}
}

func TestEigenvectorEdgeless(t *testing.T) {
	ev := Eigenvector(graph.FromEdges(3, nil), 10, 1e-9)
	for _, x := range ev {
		if x != 0 {
			t.Fatalf("edgeless centrality=%v want all zero", ev)
		}
	}
	if Eigenvector(graph.FromEdges(0, nil), 10, 1e-9) != nil {
		t.Fatal("empty graph should return nil")
	}
}

func TestRank(t *testing.T) {
	scores := []float64{0.5, 0.9, 0.1, 0.9}
	if r := Rank(scores, 1); r != 1 {
		t.Fatalf("rank=%d want 1", r)
	}
	if r := Rank(scores, 0); r != 3 {
		t.Fatalf("rank=%d want 3", r)
	}
	if r := Rank(scores, 2); r != 4 {
		t.Fatalf("rank=%d want 4", r)
	}
}

// Brute-force betweenness via explicit shortest-path enumeration on tiny
// graphs, cross-checking Brandes.
func TestBetweennessMatchesBruteForce(t *testing.T) {
	// brute force: BFS from every source, count shortest paths through v
	brute := func(g *graph.Graph) []float64 {
		n := g.NumNodes()
		cb := make([]float64, n)
		// count shortest paths s->t and those passing through v
		for s := 0; s < n; s++ {
			dist := graph.BFS(g, graph.Node(s))
			// sigma[t] = number of shortest s-t paths (DP by distance)
			sigma := make([]float64, n)
			sigma[s] = 1
			order := make([]graph.Node, 0, n)
			for u := 0; u < n; u++ {
				if dist[u] != graph.INF {
					order = append(order, graph.Node(u))
				}
			}
			sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
			for _, u := range order {
				for _, w := range g.Neighbors(u) {
					if dist[w] == dist[u]+1 {
						sigma[w] += sigma[u]
					}
				}
			}
			// sigmaThrough[v][t]: paths s->t through v — computed per pair
			for tt := 0; tt < n; tt++ {
				if tt == s || dist[tt] == graph.INF {
					continue
				}
				for v := 0; v < n; v++ {
					if v == s || v == tt || dist[v] == graph.INF {
						continue
					}
					// paths through v = sigma(s,v) * sigma(v,t) if on a shortest path
					dv := graph.BFS(g, graph.Node(v))
					if dist[v]+dv[tt] == dist[tt] {
						sigmaV := sigma[v]
						// sigma(v,t): recompute from v
						sigmaVT := countPaths(g, graph.Node(v), graph.Node(tt))
						total := sigma[tt]
						if total > 0 {
							cb[v] += sigmaV * sigmaVT / total
						}
					}
				}
			}
		}
		for i := range cb {
			cb[i] /= 2 // undirected double count
		}
		return cb
	}
	g := graph.FromEdges(7, [][2]graph.Node{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}, {5, 3}, {4, 6}})
	want := brute(g)
	got := Betweenness(g)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("cb[%d]=%v want %v (all: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

// countPaths counts shortest s→t paths by BFS DP.
func countPaths(g *graph.Graph, s, t graph.Node) float64 {
	dist := graph.BFS(g, s)
	n := g.NumNodes()
	sigma := make([]float64, n)
	sigma[s] = 1
	order := make([]graph.Node, 0, n)
	for u := 0; u < n; u++ {
		if dist[u] != graph.INF {
			order = append(order, graph.Node(u))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	for _, u := range order {
		for _, w := range g.Neighbors(u) {
			if dist[w] == dist[u]+1 {
				sigma[w] += sigma[u]
			}
		}
	}
	return sigma[t]
}
