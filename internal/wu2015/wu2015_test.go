package wu2015

import (
	"math"
	"testing"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
)

func twoCliquesBridge() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
			b.AddEdge(graph.Node(i+5), graph.Node(j+5))
		}
	}
	b.AddEdge(4, 5)
	return b.Build()
}

func TestProximitySumsToOne(t *testing.T) {
	g := twoCliquesBridge()
	r := Proximity(g, []graph.Node{0}, Options{})
	var sum float64
	for _, x := range r {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proximity mass=%v want 1", sum)
	}
}

func TestProximityDecaysWithDistance(t *testing.T) {
	g := twoCliquesBridge()
	r := Proximity(g, []graph.Node{0}, Options{})
	// node 1 (same clique) should be closer than node 9 (other clique)
	if r[1] <= r[9] {
		t.Fatalf("proximity should decay with distance: r[1]=%v r[9]=%v", r[1], r[9])
	}
	if r[0] <= r[1] {
		t.Fatalf("query node should have the highest proximity: %v vs %v", r[0], r[1])
	}
}

func TestProximityUnreachable(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	r := Proximity(g, []graph.Node{0}, Options{})
	if r[2] != 0 || r[3] != 0 {
		t.Fatalf("unreachable nodes should have zero proximity: %v", r)
	}
	if r2 := Proximity(g, nil, Options{}); r2[0] != 0 {
		t.Fatal("empty query should yield zero proximity")
	}
}

func TestQueryBiasedDensityPrefersNearClique(t *testing.T) {
	g := twoCliquesBridge()
	prox := Proximity(g, []graph.Node{0}, Options{})
	c := graph.NewCSR(g)
	left := graph.NewCSRViewOf(c, []graph.Node{0, 1, 2, 3, 4})
	whole := graph.NewCSRViewOf(c, []graph.Node{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if QueryBiasedDensityCSR(left, prox) <= QueryBiasedDensityCSR(whole, prox) {
		t.Fatal("query-biased density should prefer the near clique over the whole graph")
	}
}

func TestQueryBiasedDensityUnreachableZero(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	prox := Proximity(g, []graph.Node{0}, Options{})
	v := graph.NewCSRViewOf(graph.NewCSR(g), []graph.Node{0, 1, 2, 3}) // includes unreachable nodes
	if QueryBiasedDensityCSR(v, prox) != 0 {
		t.Fatal("sets with unreachable nodes should score 0")
	}
}

func TestSearchFindsNearClique(t *testing.T) {
	g := twoCliquesBridge()
	c := Search(g, []graph.Node{0}, Options{})
	if len(c) != 5 {
		t.Fatalf("wu2015 community=%v want the near K5", c)
	}
	for _, u := range c {
		if u > 4 {
			t.Fatalf("community crossed the bridge: %v", c)
		}
	}
}

func TestSearchKeepsQueryNodes(t *testing.T) {
	g := twoCliquesBridge()
	c := Search(g, []graph.Node{0, 9}, Options{})
	in := map[graph.Node]bool{}
	for _, u := range c {
		in[u] = true
	}
	if !in[0] || !in[9] {
		t.Fatalf("wu2015 must keep the query nodes: %v", c)
	}
}

func TestSearchDisconnectedQuery(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if Search(g, []graph.Node{0, 3}, Options{}) != nil {
		t.Fatal("disconnected query should return nil")
	}
	if Search(g, nil, Options{}) != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestSearchOnPlantedPartition(t *testing.T) {
	g, comms := gen.PlantedPartition([]int{25, 25}, 0.5, 0.01, 11)
	q := comms[0][0]
	c := Search(g, []graph.Node{q}, Options{})
	if len(c) == 0 {
		t.Fatal("wu2015 found nothing")
	}
	// the majority of the result should come from the query's community
	in := make(map[graph.Node]bool, len(comms[0]))
	for _, u := range comms[0] {
		in[u] = true
	}
	hits := 0
	for _, u := range c {
		if in[u] {
			hits++
		}
	}
	if float64(hits)/float64(len(c)) < 0.6 {
		t.Fatalf("only %d/%d of wu2015's community is near the query", hits, len(c))
	}
}
