package kcore

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dmcs/internal/graph"
)

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	return b.Build()
}

func TestDecomposeClique(t *testing.T) {
	g := complete(5)
	core := Decompose(g)
	for u, c := range core {
		if c != 4 {
			t.Fatalf("core[%d]=%d want 4", u, c)
		}
	}
}

func TestDecomposePath(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {1, 2}, {2, 3}})
	for u, c := range Decompose(g) {
		if c != 1 {
			t.Fatalf("core[%d]=%d want 1", u, c)
		}
	}
}

func TestDecomposeCliqueWithTail(t *testing.T) {
	// K4 (nodes 0-3) with a pendant path 3-4-5.
	b := graph.NewBuilder(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	core := Decompose(g)
	want := []int32{3, 3, 3, 3, 1, 1}
	for u := range want {
		if core[u] != want[u] {
			t.Fatalf("core=%v want %v", core, want)
		}
	}
}

func TestDecomposeIsolatedNodes(t *testing.T) {
	g := graph.FromEdges(3, nil)
	for u, c := range Decompose(g) {
		if c != 0 {
			t.Fatalf("core[%d]=%d want 0", u, c)
		}
	}
}

// Property: the core number computed by the bucket algorithm matches a
// naive iterative-peeling reference implementation.
func TestDecomposeMatchesNaive(t *testing.T) {
	naive := func(g *graph.Graph) []int32 {
		n := g.NumNodes()
		core := make([]int32, n)
		all := make([]graph.Node, n)
		for u := range all {
			all[u] = graph.Node(u)
		}
		v := graph.NewCSRViewOf(graph.NewCSR(g), all)
		for k := int32(1); v.NumAlive() > 0; k++ {
			for {
				removed := false
				for u := 0; u < n; u++ {
					if v.Alive(graph.Node(u)) && v.DegreeIn(graph.Node(u)) < int(k) {
						core[u] = k - 1
						v.Remove(graph.Node(u))
						removed = true
					}
				}
				if !removed {
					break
				}
			}
		}
		return core
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(30)
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if rng.Float64() < 0.15 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		got := Decompose(g)
		want := naive(g)
		for u := range got {
			if got[u] != want[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// twoK4s builds two K4s (nodes 0-3 and 4-7) joined through a degree-2
// middle node 8 (edges 3-8, 8-4). Node 8 peels out of the 3-core, which
// therefore splits into the two K4 components.
func twoK4s() *graph.Graph {
	b := graph.NewBuilder(9)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
			b.AddEdge(graph.Node(i+4), graph.Node(j+4))
		}
	}
	b.AddEdge(3, 8)
	b.AddEdge(8, 4)
	return b.Build()
}

func TestCommunityConnectedKCore(t *testing.T) {
	g := twoK4s()
	c := Community(g, []graph.Node{0}, 3)
	if len(c) != 4 {
		t.Fatalf("3-core community size=%d want 4 (%v)", len(c), c)
	}
	for _, u := range c {
		if u >= 4 {
			t.Fatalf("community crossed the connector: %v", c)
		}
	}
	// k=1 community spans everything
	if c := Community(g, []graph.Node{0}, 1); len(c) != 9 {
		t.Fatalf("1-core community size=%d want 9", len(c))
	}
	// infeasible k
	if c := Community(g, []graph.Node{0}, 4); c != nil {
		t.Fatalf("4-core should not exist, got %v", c)
	}
}

func TestCommunityMultipleQueriesSeparated(t *testing.T) {
	g := twoK4s()
	// 0 and 7 are in different 3-core components → nil
	if c := Community(g, []graph.Node{0, 7}, 3); c != nil {
		t.Fatalf("cross-component query should fail, got %v", c)
	}
	// but are connected in the 1-core
	if c := Community(g, []graph.Node{0, 7}, 1); len(c) != 9 {
		t.Fatalf("1-core multi-query size=%d want 9", len(c))
	}
}

func TestCommunityEmptyQuery(t *testing.T) {
	if Community(complete(4), nil, 2) != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestHighestCore(t *testing.T) {
	// K5 with a tail: highest core for a K5 member is 4.
	b := graph.NewBuilder(7)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	c, k := HighestCore(g, []graph.Node{0})
	if k != 4 || len(c) != 5 {
		t.Fatalf("highcore k=%d size=%d want 4/5", k, len(c))
	}
	// tail node: its core number is 1, the 1-core is the whole graph
	c, k = HighestCore(g, []graph.Node{6})
	if k != 1 || len(c) != 7 {
		t.Fatalf("tail highcore k=%d size=%d want 1/7", k, len(c))
	}
	// query spanning clique and tail limits k to the tail's core number
	c, k = HighestCore(g, []graph.Node{0, 6})
	if k != 1 || len(c) != 7 {
		t.Fatalf("mixed highcore k=%d size=%d want 1/7", k, len(c))
	}
}

// Regression: HighestCore used to call Community, and with it Decompose,
// once per candidate k. Two K40s joined through a degree-2 node make it
// walk k = 39 … 2 for a query with one node in each, so the bytes it
// allocates must stay below those of the same walk made through Community,
// which pays a decomposition per k; before the fix they were above (one
// decomposition more).
func TestHighestCoreDecomposesOnce(t *testing.T) {
	const n = 40
	b := graph.NewBuilder(2*n + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
			b.AddEdge(graph.Node(n+i), graph.Node(n+j))
		}
	}
	b.AddEdge(n-1, 2*n)
	b.AddEdge(2*n, n)
	g := b.Build()
	q := []graph.Node{0, 2*n - 1}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var k int
	got := allocated(func() { _, k = HighestCore(g, q) })
	if k != 2 {
		t.Fatalf("highcore k=%d want 2 (the joining node's core number)", k)
	}
	walk := allocated(func() {
		for k := n - 1; k >= 2; k-- {
			Community(g, q, k)
		}
	})
	if got >= walk {
		t.Fatalf("HighestCore allocated %d bytes, the Community walk over the same %d values of k %d", got, n-2, walk)
	}
}

func TestMaxCore(t *testing.T) {
	if MaxCore(complete(6)) != 5 {
		t.Fatal("K6 max core should be 5")
	}
	if MaxCore(graph.FromEdges(2, nil)) != 0 {
		t.Fatal("edgeless max core should be 0")
	}
}
