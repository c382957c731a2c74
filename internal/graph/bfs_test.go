package graph_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// This file is in the external test package because it needs internal/lfr
// and internal/gen, which import internal/graph.

// queueBFS is the reference the BFS kernel is checked against: the plain
// top-down queue BFS, restricted to alive nodes (nil = all). Dead nodes,
// dead sources and unreachable nodes get INF.
func queueBFS(c *graph.CSR, alive []bool, sources []graph.Node) []int32 {
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = graph.INF
	}
	var queue []graph.Node
	for _, s := range sources {
		if (alive == nil || alive[s]) && dist[s] == graph.INF {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range c.Neighbors(u) {
			if (alive == nil || alive[w]) && dist[w] == graph.INF {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// bfsShape is one graph of the BFS table with the source sets to run.
type bfsShape struct {
	name    string
	g       *graph.Graph
	sources [][]graph.Node
	// longTail marks the shapes with a long thin part: a path's worth of
	// levels, on which a BFS that kept choosing bottom-up would go
	// quadratic.
	longTail bool
	// minBottomUp is the least number of bottom-up levels the first source
	// set must take: 1 on the shapes built so that the switch fires, 2
	// where it must fire again.
	minBottomUp int
}

func bfsShapes(t testing.TB) []bfsShape {
	path := graph.NewBuilder(400)
	for i := 1; i < 400; i++ {
		path.AddEdge(graph.Node(i-1), graph.Node(i))
	}
	star := graph.NewBuilder(300)
	for i := 1; i < 300; i++ {
		star.AddEdge(0, graph.Node(i))
	}
	// lollipop: a 40-clique (nodes 0..39) and a 600-node tail hung on 39
	const clique, tail = 40, 600
	lolli := graph.NewBuilder(clique + tail)
	for u := 0; u < clique; u++ {
		for v := u + 1; v < clique; v++ {
			lolli.AddEdge(graph.Node(u), graph.Node(v))
		}
	}
	for i := clique; i < clique+tail; i++ {
		lolli.AddEdge(graph.Node(i-1), graph.Node(i))
	}
	// caterpillar: a 200-node spine (even ids), three leaves per spine node
	cat := graph.NewBuilder(200 * 4)
	for i := 0; i < 200; i++ {
		if i > 0 {
			cat.AddEdge(graph.Node(4*(i-1)), graph.Node(4*i))
		}
		for l := 1; l <= 3; l++ {
			cat.AddEdge(graph.Node(4*i), graph.Node(4*i+l))
		}
	}
	ring, _ := gen.RingOfCliques(12, 9)
	cfg := lfr.Default()
	cfg.N, cfg.MaxDeg, cfg.MaxComm = 2000, 120, 300
	res, err := lfr.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// two components and an isolated node: sources only ever in the first
	split := graph.NewBuilder(61)
	for i := 1; i < 30; i++ {
		split.AddEdge(graph.Node(i-1), graph.Node(i))
		split.AddEdge(graph.Node(30+i-1), graph.Node(30+i))
		split.AddEdge(graph.Node(i/2), graph.Node(i))
	}
	return []bfsShape{
		{name: "path", g: path.Build(), sources: [][]graph.Node{{0}, {200}, {0, 399}, {7, 7, 7}}, longTail: true},
		{name: "star", g: star.Build(), sources: [][]graph.Node{{5}, {0}, {1, 2, 3}}, minBottomUp: 1},
		{name: "lollipop", g: lolli.Build(), sources: [][]graph.Node{{0}, {clique + tail - 1}, {clique + 300}, {3, clique + 500}}, longTail: true, minBottomUp: 1},
		{name: "caterpillar", g: cat.Build(), sources: [][]graph.Node{{0}, {401}, {3, 797}}, longTail: true},
		{name: "ring-of-cliques", g: ring, sources: [][]graph.Node{{0}, {0, 50}, {4, 4, 60, 4}}, minBottomUp: 2},
		{name: "lfr", g: res.G, sources: [][]graph.Node{{0}, {17, 1234}, {5, 5, 900, 1999}}, minBottomUp: 2},
		{name: "unreachable", g: split.Build(), sources: [][]graph.Node{{0}, {29, 3}, {12, 12}}},
	}
}

func sameDist(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: dist[%d] = %d, reference %d", what, u, got[u], want[u])
		}
	}
}

// checkBFS compares both entry points with the reference on c: the CSR's
// over the whole graph, the view's with about a fifth of the nodes dead,
// the first source among them. dist and queue are reused, dirty, from one
// call to the next, as the arenas reuse them.
func checkBFS(t *testing.T, what string, c *graph.CSR, sources []graph.Node, rng *rand.Rand, dist []int32, queue []graph.Node) {
	t.Helper()
	n := c.NumNodes()
	sameDist(t, what+" CSR", c.MultiSourceBFSInto(sources, dist[:n], queue), queueBFS(c, nil, sources))

	alive := make([]bool, n)
	var members []graph.Node
	for u := range alive {
		if graph.Node(u) != sources[0] && rng.Intn(5) != 0 {
			alive[u] = true
			members = append(members, graph.Node(u))
		}
	}
	v := graph.NewCSRViewOf(c, members)
	sameDist(t, what+" view", v.MultiSourceBFSInto(sources, dist[:n], queue), queueBFS(c, alive, sources))
}

// TestBFSMatchesQueueBFS is the direction-optimizing kernel's proof
// obligation: on the shapes where the switch to bottom-up fires at the
// first level (star), once (lollipop, from the clique), again
// and again (ring of cliques, LFR), never (path, caterpillar) or with
// nodes it must not reach (unreachable ones stay INF, dead ones too), and
// on random graphs across densities, it writes the distances the plain
// queue BFS writes.
func TestBFSMatchesQueueBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dist, queue := make([]int32, 4096), make([]graph.Node, 0, 4096)
	for _, sh := range bfsShapes(t) {
		c := graph.NewCSR(sh.g)
		for _, sources := range sh.sources {
			checkBFS(t, sh.name, c, sources, rng, dist, queue)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		n := 20 + rng.Intn(300)
		// from below the connectivity threshold to dense
		p := []float64{0.5, 1.2, 3, 12, 60}[seed%5] / float64(n)
		c := graph.NewCSR(gen.ErdosRenyi(n, p, seed))
		sources := make([]graph.Node, 1+rng.Intn(4))
		for i := range sources {
			sources[i] = graph.Node(rng.Intn(n))
		}
		checkBFS(t, "random", c, sources, rng, dist, queue)
	}
}

// TestCSRBFSMatchesGraphBFS checks the single-source wrappers, CSR.BFS and
// the Graph form over it, against the queue BFS.
func TestCSRBFSMatchesGraphBFS(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := gen.ErdosRenyi(35, 0.1, seed)
		c := graph.NewCSR(g)
		want := queueBFS(c, nil, []graph.Node{0})
		sameDist(t, "CSR.BFS", c.BFS(0), want)
		sameDist(t, "graph.BFS", graph.BFS(g, 0), want)
	}
}

// TestBFSBottomUpLevelsBounded pins the two bounds levelBFS's comment
// derives. Every bottom-up level needs factor*frontierEntries > n, and
// every entry is a frontier entry once, so no graph takes more than
// factor*entries/n of them; on the long-tail shapes, where a run of
// bottom-up levels shrinks the unvisited entries geometrically and a thin
// frontier never starts one, the count must stay logarithmic — not one
// per level of the tail. minBottomUp keeps the test honest: the shapes
// built to make the switch fire must make it fire.
func TestBFSBottomUpLevelsBounded(t *testing.T) {
	for _, sh := range bfsShapes(t) {
		c := graph.NewCSR(sh.g)
		entries, n := 2*c.NumEdges(), c.NumNodes()
		for i, sources := range sh.sources {
			got := c.BFSBottomUpLevels(sources)
			if limit := graph.BFSBottomUpFactor * entries / n; got > limit {
				t.Errorf("%s %v: %d bottom-up levels, above factor*entries/n = %d", sh.name, sources, got, limit)
			}
			if limit := bits.Len(uint(entries)); sh.longTail && got > limit {
				t.Errorf("%s %v: %d bottom-up levels on a long-tail shape, above log2(entries) = %d", sh.name, sources, got, limit)
			}
			if i == 0 && got < sh.minBottomUp {
				t.Errorf("%s %v: %d bottom-up levels, want at least %d", sh.name, sources, got, sh.minBottomUp)
			}
		}
	}
}

// BenchmarkLayeringBFS times the BFS that layers a query's component, on
// the three component shapes the serving benchmarks use: the giant
// component of LFR Default() at 16384 nodes (degree skew, two layers hold
// almost every node: bottom-up pays), a degree-6 expander of the same size
// (no skew: bottom-up only for the last layers), and a 64-node ring+chord
// island (the direction bookkeeping is all there is to lose).
func BenchmarkLayeringBFS(b *testing.B) {
	const whale = 16384
	cfg := lfr.Default()
	cfg.N = whale
	res, err := lfr.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lfrCSR := graph.NewCSR(res.G)
	giant, _ := lfrCSR.Component(0)
	if len(giant) < whale/2 {
		b.Fatalf("node 0 is outside the giant component (%d nodes)", len(giant))
	}
	expander := graph.NewBuilder(whale)
	for u := 0; u < whale; u++ {
		expander.AddEdge(graph.Node(u), graph.Node((u+1)%whale))
		expander.AddEdge(graph.Node(u), graph.Node((7*u+3)%whale))
		expander.AddEdge(graph.Node(u), graph.Node((131*u+17)%whale))
	}
	island := graph.NewBuilder(64)
	for i := 0; i < 64; i++ {
		island.AddEdge(graph.Node(i), graph.Node((i+1)%64))
		island.AddEdge(graph.Node(i), graph.Node((i+7)%64))
	}
	for _, tc := range []struct {
		name string
		c    *graph.SubCSR
	}{
		{"lfr16k", graph.NewSubCSR(lfrCSR, giant)},
		{"expander16k", graph.WrapCSR(graph.NewCSR(expander.Build()))},
		{"island64", graph.WrapCSR(graph.NewCSR(island.Build()))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			n := tc.c.NumNodes()
			dist, queue := make([]int32, n), make([]graph.Node, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.c.MultiSourceBFSInto([]graph.Node{graph.Node((i * 977) % n)}, dist, queue)
			}
		})
	}
}
