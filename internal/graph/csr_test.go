package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCSRMatchesGraph(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(40, 0.12, seed)
		c := NewCSR(g)
		if c.NumNodes() != g.NumNodes() {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			if c.Degree(Node(u)) != g.Degree(Node(u)) {
				return false
			}
			a, b := c.Neighbors(Node(u)), g.Neighbors(Node(u))
			for i := range b {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRTrianglesClique(t *testing.T) {
	// every node of K5 is in C(4,2)=6 triangles
	c := NewCSR(complete(5))
	for u, tri := range c.Triangles() {
		if tri != 6 {
			t.Fatalf("tri[%d]=%d want 6", u, tri)
		}
	}
}

func TestCSRTrianglesTriangleFree(t *testing.T) {
	c := NewCSR(cycle(6))
	for u, tri := range c.Triangles() {
		if tri != 0 {
			t.Fatalf("tri[%d]=%d want 0 in a 6-cycle", u, tri)
		}
	}
}

func TestLocalClustering(t *testing.T) {
	// triangle with a pendant: triangle nodes have cc related to their
	// degree; the pendant has cc 0.
	g := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	cc := NewCSR(g).LocalClustering()
	if cc[0] != 1 || cc[1] != 1 {
		t.Fatalf("cc of pure triangle nodes should be 1: %v", cc)
	}
	// node 2: degree 3, one triangle → 2·1/(3·2) = 1/3
	if math.Abs(cc[2]-1.0/3) > 1e-9 {
		t.Fatalf("cc[2]=%v want 1/3", cc[2])
	}
	if cc[3] != 0 {
		t.Fatalf("pendant cc=%v want 0", cc[3])
	}
}

func TestAvgClustering(t *testing.T) {
	c := NewCSR(complete(4))
	if got := c.AvgClustering(nil); math.Abs(got-1) > 1e-9 {
		t.Fatalf("K4 average clustering=%v want 1", got)
	}
	if got := c.AvgClustering([]Node{0, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("subset clustering=%v want 1", got)
	}
	if got := c.AvgClustering([]Node{}); got != 0 {
		t.Fatalf("empty subset clustering=%v want 0", got)
	}
}

// BenchmarkCSRTraversal times the BFS kernel over the packed arrays.
func BenchmarkCSRTraversal(b *testing.B) {
	g := benchRandom(3000, 0.004)
	c := NewCSR(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BFS(0)
	}
}
