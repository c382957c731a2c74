package graph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// path returns a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(Node(i), Node(i+1))
	}
	return b.Build()
}

// cycle returns a cycle graph on n nodes.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(Node(i), Node((i+1)%n))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(Node(i), Node(j))
		}
	}
	return b.Build()
}

// randomGraph returns an Erdős–Rényi style graph used by property tests.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(Node(i), Node(j))
			}
		}
	}
	return b.Build()
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop should have been dropped, deg(2)=%d", g.Degree(2))
	}
}

func TestBuilderGrowsNodeCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestHasEdgeAndNeighborsSorted(t *testing.T) {
	g := FromEdges(5, [][2]Node{{0, 3}, {0, 1}, {0, 4}, {2, 3}})
	if !g.HasEdge(3, 0) || !g.HasEdge(0, 3) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(1, 2) {
		t.Fatal("HasEdge(1,2) should be false")
	}
	if g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge should be false")
	}
	nb := g.Neighbors(0)
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
		t.Fatalf("neighbors not sorted: %v", nb)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(40, 0.15, seed)
		sum := 0
		for u := 0; u < g.NumNodes(); u++ {
			sum += g.Degree(Node(u))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesIterationCountsEachOnce(t *testing.T) {
	g := randomGraph(30, 0.2, 7)
	count := 0
	g.Edges(func(u, v Node) bool {
		if u >= v {
			t.Fatalf("Edges yielded u >= v: %d %d", u, v)
		}
		count++
		return true
	})
	if count != g.NumEdges() {
		t.Fatalf("Edges visited %d, want %d", count, g.NumEdges())
	}
	if len(g.EdgeList()) != g.NumEdges() {
		t.Fatalf("EdgeList length mismatch")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(5)
	sub, back := g.InducedSubgraph([]Node{1, 2, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	want := []Node{1, 2, 4}
	for i, u := range back {
		if u != want[i] {
			t.Fatalf("back[%d]=%d want %d", i, u, want[i])
		}
	}
}

func TestInducedSubgraphKeepsWeightsAndLabels(t *testing.T) {
	b := NewBuilder(3)
	b.SetLabels([]string{"a", "b", "c"})
	b.SetWeight(0, 1, 2.5)
	b.AddEdge(1, 2)
	g := b.Build()
	sub, _ := g.InducedSubgraph([]Node{0, 1})
	if sub.NumEdges() != 1 {
		t.Fatalf("want 1 edge, got %d", sub.NumEdges())
	}
	if w := sub.EdgeWeight(0, 1); w != 2.5 {
		t.Fatalf("weight = %g, want 2.5", w)
	}
	if sub.Label(1) != "b" {
		t.Fatalf("label = %q, want b", sub.Label(1))
	}
}

func TestWeightsDefaultToOne(t *testing.T) {
	g := complete(3)
	if g.Weighted() {
		t.Fatal("complete(3) should be unweighted")
	}
	if g.EdgeWeight(0, 1) != 1 {
		t.Fatal("unweighted edge weight should be 1")
	}
	if g.TotalWeight() != 3 {
		t.Fatalf("TotalWeight = %g, want 3", g.TotalWeight())
	}
	if g.WeightedDegree(0) != 2 {
		t.Fatalf("WeightedDegree = %g, want 2", g.WeightedDegree(0))
	}
}

func TestWeightedAccessors(t *testing.T) {
	b := NewBuilder(3)
	b.SetWeight(0, 1, 2)
	b.SetWeight(1, 2, 3)
	g := b.Build()
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if g.TotalWeight() != 5 {
		t.Fatalf("TotalWeight = %g, want 5", g.TotalWeight())
	}
	if g.WeightedDegree(1) != 5 {
		t.Fatalf("WeightedDegree(1) = %g, want 5", g.WeightedDegree(1))
	}
}

func TestParseEdgeListRoundTrip(t *testing.T) {
	in := "# comment\na b\nb c\n\nc a\n"
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 3 || g2.NumEdges() != 3 {
		t.Fatal("round trip changed the graph")
	}
}

func TestParseEdgeListWeighted(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("x y 4.5\ny z 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.EdgeWeight(0, 1) != 4.5 {
		t.Fatalf("weight = %g, want 4.5", g.EdgeWeight(0, 1))
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	if _, err := ParseEdgeList(strings.NewReader("justone\n")); err == nil {
		t.Fatal("want error for single-field line")
	}
	if _, err := ParseEdgeList(strings.NewReader("a b notanumber\n")); err == nil {
		t.Fatal("want error for bad weight")
	}
}

func TestParseCommunities(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("a b\nb c\nc d\n"))
	if err != nil {
		t.Fatal(err)
	}
	comms, err := ParseCommunities(strings.NewReader("a b\nc d\n"), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 2 || len(comms[0]) != 2 {
		t.Fatalf("parsed %v", comms)
	}
	if _, err := ParseCommunities(strings.NewReader("a nosuch\n"), g); err == nil {
		t.Fatal("want error for unknown node")
	}
	var sb strings.Builder
	if err := WriteCommunities(&sb, g, comms); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a b\nc d\n" {
		t.Fatalf("WriteCommunities output %q", sb.String())
	}
}
