package dmcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

func TestExactSmallOnTwoTriangles(t *testing.T) {
	// two triangles joined by a bridge: optimum for a triangle member is
	// its own triangle
	g := graph.FromEdges(6, [][2]graph.Node{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}})
	res, err := ExactSmall(g, []graph.Node{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) != 3 {
		t.Fatalf("exact community=%v want the triangle", res.Community)
	}
	want := modularity.Density(g, []graph.Node{0, 1, 2})
	if res.Score != want {
		t.Fatalf("score=%v want %v", res.Score, want)
	}
}

func TestExactSmallErrors(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if _, err := ExactSmall(g, nil, 0); err != ErrEmptyQuery {
		t.Fatalf("want ErrEmptyQuery, got %v", err)
	}
	if _, err := ExactSmall(g, []graph.Node{0, 2}, 0); err != ErrDisconnected {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	big := graph.FromEdges(30, [][2]graph.Node{{0, 1}})
	if _, err := ExactSmall(big, []graph.Node{0}, 0); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	// Regression: an id outside [0, n) used to index a BFS distance array
	// (or shift a query mask) unvalidated; it gets Search's error.
	for _, q := range [][]graph.Node{{0, 7}, {7}, {-1, 0}} {
		_, want := Search(g, q, VariantFPA, Options{})
		if _, err := ExactSmall(g, q, 0); err != ErrNodeOutOfRange || err != want {
			t.Fatalf("ExactSmall(%v): got %v, Search says %v", q, err, want)
		}
	}
}

// Property: the exact optimum upper-bounds every heuristic, and the
// heuristics stay within a reasonable optimality gap on small random
// graphs (this quantifies the greedy framework's quality).
func TestHeuristicsBoundedByExact(t *testing.T) {
	worstGap := 0.0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(6)
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(graph.Node(i), graph.Node(rng.Intn(i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		q := []graph.Node{graph.Node(rng.Intn(n))}
		exact, err := ExactSmall(g, q, 0)
		if err != nil {
			return false
		}
		for _, variant := range []Variant{VariantFPA, VariantNCA} {
			r, err := Search(g, q, variant, Options{})
			if err != nil {
				return false
			}
			if r.Score > exact.Score+1e-9 {
				return false // heuristic beat the optimum: impossible
			}
			if exact.Score > 0 {
				if gap := (exact.Score - r.Score) / exact.Score; gap > worstGap {
					worstGap = gap
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	t.Logf("worst observed optimality gap: %.1f%%", 100*worstGap)
}

func TestFPAOftenMatchesExactOnCliquePlusTail(t *testing.T) {
	// K5 with a pendant path: the optimum is the K5 and FPA finds it
	b := graph.NewBuilder(8)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	g := b.Build()
	exact, err := ExactSmall(g, []graph.Node{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fpa, err := FPA(g, []graph.Node{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fpa.Score != exact.Score {
		t.Fatalf("FPA %v != exact %v on the clique+tail gadget", fpa.Score, exact.Score)
	}
	if len(exact.Community) != 5 {
		t.Fatalf("exact=%v want the K5", exact.Community)
	}
}
