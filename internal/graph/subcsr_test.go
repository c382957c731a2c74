package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// subTestGraph builds a random graph of a few components; weighted draws
// a weight in (0.5, 3) per edge.
func subTestGraph(rng *rand.Rand, n int, weighted bool) *Graph {
	b := NewBuilder(n)
	third := n / 3
	addEdge := func(u, v Node) {
		if weighted {
			b.SetWeight(u, v, 0.5+2.5*rng.Float64())
		} else {
			b.AddEdge(u, v)
		}
	}
	// three chains keep three components, then random intra-third edges
	for c := 0; c < 3; c++ {
		lo, hi := c*third, (c+1)*third
		if c == 2 {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			addEdge(Node(i-1), Node(i))
		}
		for t := 0; t < (hi-lo)*2; t++ {
			u, v := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
			if u != v {
				addEdge(Node(u), Node(v))
			}
		}
	}
	return b.Build()
}

func TestSubCSRMatchesInducedSubgraph(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		g := subTestGraph(rng, 90, weighted)
		c := NewCSR(g)
		comp, _ := c.Component(0)
		if len(comp) >= c.NumNodes() {
			t.Fatal("fixture should have several components")
		}
		sub := NewSubCSR(c, comp)

		if sub.NumNodes() != len(comp) {
			t.Fatalf("NumNodes = %d, want %d", sub.NumNodes(), len(comp))
		}
		if sub.TotalWeight() != c.TotalWeight() {
			t.Errorf("TotalWeight = %v, want parent %v", sub.TotalWeight(), c.TotalWeight())
		}
		if sub.Weighted() != c.Weighted() {
			t.Errorf("Weighted = %v, want %v", sub.Weighted(), c.Weighted())
		}
		for li, gu := range comp {
			u := Node(li)
			if sub.GlobalOf(u) != gu {
				t.Fatalf("GlobalOf(%d) = %d, want %d", li, sub.GlobalOf(u), gu)
			}
			if got, ok := sub.LocalOf(gu); !ok || got != u {
				t.Fatalf("LocalOf(%d) = %d,%v, want %d", gu, got, ok, li)
			}
			if sub.WeightedDegree(u) != c.WeightedDegree(gu) {
				t.Errorf("wdeg mismatch at local %d", li)
			}
			adj := sub.Neighbors(u)
			gadj := c.Neighbors(gu)
			if len(adj) != len(gadj) {
				t.Fatalf("degree mismatch at local %d: %d vs %d", li, len(adj), len(gadj))
			}
			for j, lw := range adj {
				if sub.GlobalOf(lw) != gadj[j] {
					t.Fatalf("neighbor order mismatch at local %d", li)
				}
				if j > 0 && adj[j-1] >= lw {
					t.Fatalf("local adjacency of %d not sorted", li)
				}
			}
			if weighted {
				ws, gws := sub.NeighborWeights(u), c.NeighborWeights(gu)
				for j := range ws {
					if ws[j] != gws[j] {
						t.Fatalf("weight mismatch at local %d", li)
					}
				}
			}
		}
		// The canonical aggregates must be bit-identical to what a view
		// over the parent computes for the same member set.
		pv := NewCSRViewOf(c, comp)
		if sub.InternalWeight() != pv.InternalWeight() {
			t.Errorf("InternalWeight = %v, want %v", sub.InternalWeight(), pv.InternalWeight())
		}
		if sub.MemberWeightSum() != pv.NodeWeightSum() {
			t.Errorf("MemberWeightSum = %v, want %v", sub.MemberWeightSum(), pv.NodeWeightSum())
		}
		// A non-member node id must not resolve.
		for _, gu := range []Node{comp[len(comp)-1] + 1, Node(c.NumNodes() - 1)} {
			if _, ok := sub.LocalOf(gu); ok {
				t.Errorf("LocalOf(%d) resolved for a non-member", gu)
			}
		}
	}
}

func TestWrapCSRIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := subTestGraph(rng, 60, true)
	c := NewCSR(g)
	sub := WrapCSR(c)
	v := allAlive(g)
	if sub.InternalWeight() != v.InternalWeight() {
		t.Errorf("InternalWeight = %v, want %v", sub.InternalWeight(), v.InternalWeight())
	}
	if sub.MemberWeightSum() != v.NodeWeightSum() {
		t.Errorf("MemberWeightSum = %v, want %v", sub.MemberWeightSum(), v.NodeWeightSum())
	}
	if sub.GlobalOf(5) != 5 {
		t.Error("identity GlobalOf broken")
	}
	if l, ok := sub.LocalOf(7); !ok || l != 7 {
		t.Error("identity LocalOf broken")
	}
	if _, ok := sub.LocalOf(Node(c.NumNodes())); ok {
		t.Error("identity LocalOf resolved out-of-range id")
	}
}

// TestArenaExtractMatchesFresh drives one arena through many extractions
// (interleaved with poisoning) and checks each against the allocating
// constructor — proving reuse cannot leak state between queries.
func TestArenaExtractMatchesFresh(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		g := subTestGraph(rng, 120, weighted)
		c := NewCSR(g)
		a := NewArena()
		roots := []Node{0, 50, 100, 0, 119, 40}
		for trial, root := range roots {
			if trial%2 == 1 {
				a.Poison()
			}
			comp, _ := c.Component(root)
			sub := a.ExtractSub(trial%2, c, comp)
			want := NewSubCSR(c, comp)
			if sub.NumNodes() != want.NumNodes() ||
				sub.InternalWeight() != want.InternalWeight() ||
				sub.MemberWeightSum() != want.MemberWeightSum() ||
				sub.TotalWeight() != want.TotalWeight() {
				t.Fatalf("trial %d: aggregates differ from fresh extraction", trial)
			}
			for u := 0; u < sub.NumNodes(); u++ {
				if sub.GlobalOf(Node(u)) != want.GlobalOf(Node(u)) {
					t.Fatalf("trial %d: global map differs at %d", trial, u)
				}
				adj, wadj := sub.Neighbors(Node(u)), want.Neighbors(Node(u))
				if len(adj) != len(wadj) {
					t.Fatalf("trial %d: degree differs at %d", trial, u)
				}
				for j := range adj {
					if adj[j] != wadj[j] {
						t.Fatalf("trial %d: adjacency differs at %d", trial, u)
					}
				}
			}
		}
	}
}

// TestArenaViewMatchesFresh checks the arena-backed view constructors
// against NewCSRView/NewCSRViewOf on extracted subs.
func TestArenaViewMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := subTestGraph(rng, 90, true)
	c := NewCSR(g)
	a := NewArena()
	comp, _ := c.Component(0)
	sub := a.ExtractSub(0, c, comp)

	av := a.ViewAll(0, sub)
	fresh := NewCSRViewOf(newContiguousCSR(sub.flatCSR), allNodes(sub.NumNodes()))
	compareViews(t, "ViewAll", av, fresh)

	// a strict subset (every third member)
	var set []Node
	for i := 0; i < sub.NumNodes(); i += 3 {
		set = append(set, Node(i))
	}
	a.Poison()
	sub = a.ExtractSub(0, c, comp)
	sv := a.ViewOf(1, sub, set)
	freshSub := NewCSRViewOf(newContiguousCSR(sub.flatCSR), set)
	compareViews(t, "ViewOf", sv, freshSub)
}

func allNodes(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node(i)
	}
	return out
}

func compareViews(t *testing.T, name string, got, want *CSRView) {
	t.Helper()
	if got.NumAlive() != want.NumAlive() || got.NumAliveEdges() != want.NumAliveEdges() {
		t.Fatalf("%s: alive counts differ", name)
	}
	if got.InternalWeight() != want.InternalWeight() {
		t.Fatalf("%s: InternalWeight %v != %v", name, got.InternalWeight(), want.InternalWeight())
	}
	if got.NodeWeightSum() != want.NodeWeightSum() {
		t.Fatalf("%s: NodeWeightSum %v != %v", name, got.NodeWeightSum(), want.NodeWeightSum())
	}
	for u := 0; u < got.NumNodes(); u++ {
		if got.Alive(Node(u)) != want.Alive(Node(u)) || got.DegreeIn(Node(u)) != want.DegreeIn(Node(u)) {
			t.Fatalf("%s: per-node state differs at %d", name, u)
		}
	}
}

// TestArticulationPointsIntoMatches runs the scratch-backed DFS against
// the allocating one across removals, reusing one scratch.
func TestArticulationPointsIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := subTestGraph(rng, 80, false)
	c := NewCSR(g)
	v := allAlive(g)
	var scratch ArtScratch
	for round := 0; round < 20; round++ {
		want := v.ArticulationPoints()
		got := v.ArticulationPointsInto(&scratch)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("round %d: mask differs at %d", round, u)
			}
		}
		// remove a random alive non-articulation node to vary the graph
		for tries := 0; tries < 50; tries++ {
			u := Node(rng.Intn(c.NumNodes()))
			if v.Alive(u) && !want[u] {
				v.Remove(u)
				break
			}
		}
	}
}

// TestArticulationWitnessesInto checks the witnessed sweep on sparse
// random views: the mask does not depend on the DFS root, every marked
// node of the root's component carries a witness that really is cut off
// from the root without it, and nothing else carries one.
func TestArticulationWitnessesInto(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(60, 0.04, seed)
		c, v := NewCSR(g), allAlive(g)
		for i := 0; i < 10; i++ {
			v.Remove(Node(rng.Intn(c.NumNodes())))
		}
		root := Node(rng.Intn(c.NumNodes()))
		for !v.Alive(root) {
			root = Node(rng.Intn(c.NumNodes()))
		}
		want := v.ArticulationPoints()
		witness := make([]Node, c.NumNodes())
		got := v.ArticulationWitnessesInto(new(ArtScratch), root, witness)
		reach := v.MultiSourceBFS([]Node{root})
		for ui := range want {
			u := Node(ui)
			if got[u] != want[u] {
				t.Fatalf("seed %d: mask differs at %d when rooted at %d", seed, u, root)
			}
			w := witness[u]
			if !got[u] || u == root || reach[u] == INF {
				if w != -1 && reach[u] != INF {
					t.Fatalf("seed %d: node %d (art=%v, root=%d) carries witness %d", seed, u, got[u], root, w)
				}
				continue
			}
			if w < 0 || !v.Alive(w) {
				t.Fatalf("seed %d: articulation point %d has witness %d", seed, u, w)
			}
			without := NewCSRViewOf(c, slices.DeleteFunc(v.LiveNodes(), func(x Node) bool { return x == u }))
			if without.MultiSourceBFS([]Node{root})[w] != INF {
				t.Fatalf("seed %d: witness %d still reaches root %d without %d", seed, w, root, u)
			}
		}
	}
}
