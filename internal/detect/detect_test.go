package detect

import (
	"testing"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/metrics"
)

// twoCliquesBridge: two K5s (0-4, 5-9) joined by one bridge edge 4-5.
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

func containsAll(c []graph.Node, want ...graph.Node) bool {
	in := make(map[graph.Node]bool, len(c))
	for _, u := range c {
		in[u] = true
	}
	for _, u := range want {
		if !in[u] {
			return false
		}
	}
	return true
}

func TestGirvanNewmanSplitsBridge(t *testing.T) {
	g := twoCliquesBridge()
	c := GirvanNewman(g, []graph.Node{0}, 0)
	if len(c) != 5 {
		t.Fatalf("GN community=%v want one K5", c)
	}
	if !containsAll(c, 0, 1, 2, 3, 4) {
		t.Fatalf("GN community=%v want left K5", c)
	}
}

func TestGirvanNewmanMultiQuery(t *testing.T) {
	g := twoCliquesBridge()
	// query nodes on both sides force the bridge to stay
	c := GirvanNewman(g, []graph.Node{0, 9}, 0)
	if !containsAll(c, 0, 9) {
		t.Fatalf("GN must keep both query nodes: %v", c)
	}
}

func TestGirvanNewmanDisconnectedQuery(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if c := GirvanNewman(g, []graph.Node{0, 3}, 0); c != nil {
		t.Fatalf("disconnected query should fail, got %v", c)
	}
	if GirvanNewman(g, nil, 0) != nil {
		t.Fatal("empty query should fail")
	}
	// Regression: ids outside [0, n) used to panic in the component check.
	for _, q := range [][]graph.Node{{0, 7}, {7}, {-1, 0}} {
		if c := GirvanNewman(g, q, 0); c != nil {
			t.Fatalf("out-of-range query %v should fail, got %v", q, c)
		}
	}
}

func TestGirvanNewmanMaxRemovals(t *testing.T) {
	g := twoCliquesBridge()
	// with a single removal allowed the bridge goes first, already
	// splitting the graph correctly
	c := GirvanNewman(g, []graph.Node{0}, 1)
	if len(c) != 5 {
		t.Fatalf("GN(1 removal)=%v want one K5", c)
	}
}

func TestCNMSplitsBridge(t *testing.T) {
	g := twoCliquesBridge()
	c := CNM(g, []graph.Node{0})
	if len(c) != 5 || !containsAll(c, 0, 1, 2, 3, 4) {
		t.Fatalf("CNM community=%v want left K5", c)
	}
}

func TestCNMKeepsQueryNodes(t *testing.T) {
	g := twoCliquesBridge()
	c := CNM(g, []graph.Node{0, 9})
	if !containsAll(c, 0, 9) {
		t.Fatalf("CNM must contain both query nodes: %v", c)
	}
}

func TestCNMEdgelessAndDisconnected(t *testing.T) {
	if CNM(graph.FromEdges(3, nil), []graph.Node{0}) != nil {
		t.Fatal("edgeless CNM should be nil")
	}
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if CNM(g, []graph.Node{0, 3}) != nil {
		t.Fatal("disconnected query should be nil")
	}
	// Regression: ids outside [0, n) used to panic in the component check.
	for _, q := range [][]graph.Node{{0, 7}, {7}, {-1, 0}} {
		if c := CNM(g, q); c != nil {
			t.Fatalf("out-of-range query %v should be nil, got %v", q, c)
		}
	}
}

func TestLouvainRingOfCliques(t *testing.T) {
	g, comms := gen.RingOfCliques(8, 5)
	labels := Louvain(g)
	// Louvain should give every clique a homogeneous label
	for ci, c := range comms {
		l := labels[c[0]]
		for _, u := range c {
			if labels[u] != l {
				t.Fatalf("clique %d split by Louvain: %v", ci, labels)
			}
		}
	}
	// and should find more than one community
	uniq := map[int]bool{}
	for _, l := range labels {
		uniq[l] = true
	}
	if len(uniq) < 2 {
		t.Fatalf("Louvain found %d communities, want several", len(uniq))
	}
}

func TestLouvainAgainstGroundTruthNMI(t *testing.T) {
	g, comms := gen.PlantedPartition([]int{40, 40, 40}, 0.4, 0.01, 17)
	labels := Louvain(g)
	truth := make([]int, g.NumNodes())
	for ci, c := range comms {
		for _, u := range c {
			truth[u] = ci
		}
	}
	if nmi := metrics.PartitionNMI(labels, truth); nmi < 0.8 {
		t.Fatalf("Louvain NMI=%.3f too low on an easy planted partition", nmi)
	}
}

func TestLouvainEdgeless(t *testing.T) {
	labels := Louvain(graph.FromEdges(3, nil))
	if len(labels) != 3 {
		t.Fatal("edgeless Louvain should return singleton labels")
	}
}

func TestLocalModularity(t *testing.T) {
	g := twoCliquesBridge()
	s := map[graph.Node]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	// left K5: 10 internal edges, 1 external (the bridge)
	if m := LocalModularity(g, s); m != 10 {
		t.Fatalf("M=%v want 10", m)
	}
	whole := map[graph.Node]bool{}
	for i := 0; i < 10; i++ {
		whole[graph.Node(i)] = true
	}
	if m := LocalModularity(g, whole); m < 1e17 {
		t.Fatalf("whole graph has no external edges, M=%v", m)
	}
	if m := LocalModularity(g, map[graph.Node]bool{}); m != 0 {
		t.Fatalf("empty set M=%v want 0", m)
	}
}

func TestICWI2008GrowsToClique(t *testing.T) {
	g := twoCliquesBridge()
	c := ICWI2008(g, []graph.Node{0})
	if !containsAll(c, 0) {
		t.Fatalf("icwi2008 must contain the query: %v", c)
	}
	// local modularity of a K5 with one external edge is 10; adding the
	// other clique makes it infinite (no external edges), so icwi2008
	// famously prefers the whole graph — the instability the paper notes.
	if len(c) != 5 && len(c) != 10 {
		t.Fatalf("icwi2008 community=%v want K5 or whole graph", c)
	}
}

func TestICWI2008EmptyQuery(t *testing.T) {
	if ICWI2008(twoCliquesBridge(), nil) != nil {
		t.Fatal("empty query should fail")
	}
}

func TestICWI2008ConnectedResult(t *testing.T) {
	g, _ := gen.PlantedPartition([]int{20, 20}, 0.4, 0.02, 5)
	c := ICWI2008(g, []graph.Node{3})
	if len(c) == 0 {
		t.Fatal("icwi2008 returned nothing")
	}
	s := make(map[graph.Node]bool, len(c))
	for _, u := range c {
		s[u] = true
	}
	if !connectedSet(g, s, 3) {
		t.Fatalf("icwi2008 result disconnected: %v", c)
	}
}
