package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d]=%d want %d", i, dist[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, [][2]Node{{0, 1}, {2, 3}})
	dist := BFS(g, 0)
	if dist[2] != INF || dist[3] != INF {
		t.Fatalf("disconnected nodes should be INF: %v", dist)
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := path(7)
	dist := MultiSourceBFS(g, []Node{0, 6})
	want := []int32{0, 1, 2, 3, 2, 1, 0}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist=%v want %v", dist, want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, [][2]Node{{0, 1}, {1, 2}, {3, 4}})
	comp, k := ConnectedComponents(g)
	if k != 3 {
		t.Fatalf("k=%d want 3 (two edges comps + isolated 5)", k)
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("comp=%v", comp)
	}
}

func TestSameComponent(t *testing.T) {
	g := FromEdges(5, [][2]Node{{0, 1}, {1, 2}, {3, 4}})
	if !SameComponent(g, []Node{0, 2}) {
		t.Fatal("0 and 2 are connected")
	}
	if SameComponent(g, []Node{0, 3}) {
		t.Fatal("0 and 3 are not connected")
	}
	if !SameComponent(g, []Node{2}) {
		t.Fatal("singleton is trivially same-component")
	}
	// Regression: ids outside [0, n) used to index the BFS distance array
	// and panic; they are in no component.
	for _, q := range [][]Node{{0, 7}, {7, 0}, {0, -1}, {-1}, {5}} {
		if SameComponent(g, q) {
			t.Fatalf("SameComponent(%v) = true on a 5-node graph", q)
		}
	}
}

func TestDiameter(t *testing.T) {
	if d := Diameter(path(5)); d != 4 {
		t.Fatalf("path diameter=%d want 4", d)
	}
	if d := Diameter(cycle(6)); d != 3 {
		t.Fatalf("cycle diameter=%d want 3", d)
	}
	if d := Diameter(complete(7)); d != 1 {
		t.Fatalf("K7 diameter=%d want 1", d)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	art := allAlive(path(5)).ArticulationPoints()
	want := []bool{false, true, true, true, false}
	for i := range want {
		if art[i] != want[i] {
			t.Fatalf("art=%v want %v", art, want)
		}
	}
}

func TestArticulationPointsCycleHasNone(t *testing.T) {
	art := allAlive(cycle(8)).ArticulationPoints()
	for u, a := range art {
		if a {
			t.Fatalf("cycle has no articulation points, got node %d", u)
		}
	}
}

func TestArticulationPointsBridge(t *testing.T) {
	// Two triangles joined by a bridge 2-3: nodes 2 and 3 are articulation.
	g := FromEdges(6, [][2]Node{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}})
	art := allAlive(g).ArticulationPoints()
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if art[i] != want[i] {
			t.Fatalf("art=%v want %v", art, want)
		}
	}
}

func TestArticulationPointsRespectsView(t *testing.T) {
	// Path 0-1-2-3 plus chord 0-2: with all alive, only 2 is articulation
	// (1 is on a cycle). After removing 3, nothing is articulation.
	g := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	v := allAlive(g)
	art := v.ArticulationPoints()
	if !art[2] || art[1] || art[0] {
		t.Fatalf("art=%v", art)
	}
	v.Remove(3)
	art = v.ArticulationPoints()
	for u := 0; u < 3; u++ {
		if art[u] {
			t.Fatalf("triangle has no articulation nodes: %v", art)
		}
	}
}

// Property: brute-force check of articulation points on random graphs with
// a random quarter of the nodes dead — an alive node is articulation iff
// removing it increases the number of connected components among the
// remaining alive nodes. The component count is Graph.Components over the
// induced subgraph: a flood that shares nothing with the low-link DFS.
func TestArticulationPointsMatchBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(24, 0.15, seed)
		rng := rand.New(rand.NewSource(seed))
		var alive []Node
		for u := 0; u < g.NumNodes(); u++ {
			if rng.Intn(4) != 0 {
				alive = append(alive, Node(u))
			}
		}
		art := NewCSRViewOf(NewCSR(g), alive).ArticulationPoints()
		countComps := func(without Node) int {
			var keep []Node
			for _, u := range alive {
				if u != without {
					keep = append(keep, u)
				}
			}
			sub, _ := g.InducedSubgraph(keep)
			_, k := ConnectedComponents(sub)
			return k
		}
		base := countComps(-1)
		for u := 0; u < g.NumNodes(); u++ {
			// for a dead u the count stays at base: never articulation
			if art[u] != (countComps(Node(u)) > base) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
