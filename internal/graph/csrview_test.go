package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomWeightedGraph builds a random graph whose every edge carries a
// weight in (0.5, 2.5).
func randomWeightedGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.SetWeight(Node(u), Node(v), 0.5+2*rng.Float64())
			}
		}
	}
	return b.Build()
}

// allAlive is the view the peels start from: every node of g alive.
func allAlive(g *Graph) *CSRView {
	all := make([]Node, g.NumNodes())
	for i := range all {
		all[i] = Node(i)
	}
	return NewCSRViewOf(NewCSR(g), all)
}

func TestViewInitialState(t *testing.T) {
	v := allAlive(complete(5))
	if v.NumAlive() != 5 || v.InternalWeight() != 10 {
		t.Fatalf("alive=%d edges=%v", v.NumAlive(), v.InternalWeight())
	}
	for u := Node(0); u < 5; u++ {
		if v.DegreeIn(u) != 4 {
			t.Fatalf("DegreeIn(%d)=%d want 4", u, v.DegreeIn(u))
		}
	}
}

func TestViewRemoveUpdatesDegreesAndEdges(t *testing.T) {
	v := allAlive(complete(5))
	v.Remove(0)
	if v.NumAlive() != 4 || v.InternalWeight() != 6 {
		t.Fatalf("after remove: alive=%d edges=%v", v.NumAlive(), v.InternalWeight())
	}
	if v.DegreeIn(1) != 3 {
		t.Fatalf("DegreeIn(1)=%d want 3", v.DegreeIn(1))
	}
	v.Remove(0) // idempotent
	if v.NumAlive() != 4 {
		t.Fatal("double remove changed count")
	}
}

// Property: after any sequence of removals DegreeIn matches a direct
// recount, and the unweighted w_C is the count of edges with both
// endpoints alive; RemoveInto (every other removal) hands back the
// removed node's alive neighbours in row order.
func TestViewInvariantsUnderRandomRemovals(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(30, 0.2, seed^0x5f)
		v := allAlive(g)
		order := rng.Perm(30)
		for i, u := range order[:20] {
			if i%2 == 0 {
				v.Remove(Node(u))
			} else {
				var want []Node
				for _, w := range g.Neighbors(Node(u)) {
					if v.Alive(w) {
						want = append(want, w)
					}
				}
				got := v.RemoveInto(Node(u), []Node{-1})
				if !slices.Equal(got, append([]Node{-1}, want...)) {
					return false
				}
			}
			// recount
			m := 0
			for x := 0; x < g.NumNodes(); x++ {
				if !v.Alive(Node(x)) {
					continue
				}
				d := 0
				for _, w := range g.Neighbors(Node(x)) {
					if v.Alive(w) {
						d++
						if Node(x) < w {
							m++
						}
					}
				}
				if d != v.DegreeIn(Node(x)) {
					return false
				}
			}
			if v.InternalWeight() != float64(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestViewLiveNodesAndInduced(t *testing.T) {
	g := complete(6)
	v := allAlive(g)
	v.Remove(1)
	v.Remove(4)
	live := v.LiveNodes()
	if want := []Node{0, 2, 3, 5}; !slices.Equal(live, want) {
		t.Fatalf("live=%v want %v", live, want)
	}
	sub, back := g.InducedSubgraph(live)
	if sub.NumNodes() != 4 || sub.NumEdges() != 6 {
		t.Fatalf("induced n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if back[1] != 2 {
		t.Fatalf("back=%v", back)
	}
}

func TestViewSumDegreesUsesOriginalDegrees(t *testing.T) {
	v := allAlive(complete(4)) // all degrees 3
	v.Remove(0)
	// d_S sums *original* degrees of alive nodes: 3 nodes × degree 3.
	if s := v.NodeWeightSum(); s != 9 {
		t.Fatalf("NodeWeightSum=%g want 9", s)
	}
}

// The incremental weighted aggregates must equal a direct recount after
// any removal sequence (within float tolerance — the recount sums in a
// different order). d_S sums the nodes' weighted degrees in the whole
// graph, not in the alive subgraph.
func TestCSRViewWeightedAggregates(t *testing.T) {
	g := randomWeightedGraph(30, 0.25, 3)
	cv := allAlive(g)
	rng := rand.New(rand.NewSource(2))
	recheck := func() {
		var wC, dS float64
		for u := Node(0); int(u) < 30; u++ {
			if !cv.Alive(u) {
				continue
			}
			dS += g.WeightedDegree(u)
			for _, w := range g.Neighbors(u) {
				if cv.Alive(w) && u < w {
					wC += g.EdgeWeight(u, w)
				}
			}
		}
		if d := cv.InternalWeight() - wC; d > 1e-9 || d < -1e-9 {
			t.Fatalf("InternalWeight=%g recount=%g", cv.InternalWeight(), wC)
		}
		if d := cv.NodeWeightSum() - dS; d > 1e-9 || d < -1e-9 {
			t.Fatalf("NodeWeightSum=%g recount=%g", cv.NodeWeightSum(), dS)
		}
	}
	recheck()
	for _, u := range rng.Perm(30)[:20] {
		cv.Remove(Node(u))
		recheck()
	}
}

// WeightedDegreeIn must equal the ordered sum of alive-neighbor weights —
// exactly what the peeling objectives call k_{v,S}.
func TestCSRViewWeightedDegreeIn(t *testing.T) {
	g := randomWeightedGraph(25, 0.3, 11)
	cv := allAlive(g)
	cv.Remove(3)
	cv.Remove(17)
	for u := Node(0); int(u) < 25; u++ {
		var k float64
		for _, w := range g.Neighbors(u) {
			if cv.Alive(w) {
				k += g.EdgeWeight(u, w)
			}
		}
		if got := cv.WeightedDegreeIn(u); got != k {
			t.Fatalf("WeightedDegreeIn(%d)=%g want %g", u, got, k)
		}
	}
}

func TestNewCSRViewOfDuplicatesAndSubset(t *testing.T) {
	g := complete(6)
	c := NewCSR(g)
	v := NewCSRViewOf(c, []Node{0, 2, 4})
	dup := NewCSRViewOf(c, []Node{0, 2, 4, 2, 0})
	if v.NumAlive() != 3 || dup.NumAlive() != 3 {
		t.Fatalf("alive %d/%d want 3", v.NumAlive(), dup.NumAlive())
	}
	if v.InternalWeight() != 3 || dup.InternalWeight() != 3 ||
		dup.NodeWeightSum() != v.NodeWeightSum() {
		t.Fatalf("aggregates broken: wC=%g/%g dS=%g/%g",
			v.InternalWeight(), dup.InternalWeight(), v.NodeWeightSum(), dup.NodeWeightSum())
	}
	if v.DegreeIn(0) != 2 || dup.DegreeIn(0) != 2 {
		t.Fatalf("DegreeIn(0)=%d/%d want 2", v.DegreeIn(0), dup.DegreeIn(0))
	}
	if v.Alive(1) || dup.Alive(5) {
		t.Fatal("dead nodes alive")
	}
}

func TestCSREdgesIterator(t *testing.T) {
	g := randomWeightedGraph(20, 0.3, 13)
	c := NewCSR(g)
	var sum float64
	count := 0
	c.Edges(func(u, v Node, w float64) bool {
		if u >= v {
			t.Fatalf("edge (%d,%d) not u<v", u, v)
		}
		if w != g.EdgeWeight(u, v) {
			t.Fatalf("weight(%d,%d)=%g want %g", u, v, w, g.EdgeWeight(u, v))
		}
		sum += w
		count++
		return true
	})
	if count != g.NumEdges() {
		t.Fatalf("visited %d edges want %d", count, g.NumEdges())
	}
	if d := sum - g.TotalWeight(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("edge-weight sum %g want %g", sum, g.TotalWeight())
	}
}
