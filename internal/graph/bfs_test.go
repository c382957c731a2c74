package graph_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
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
	// two components and an isolated node (60): sources in the first, or
	// the isolated node alone
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
		{name: "unreachable", g: split.Build(), sources: [][]graph.Node{{0}, {29, 3}, {12, 12}, {60}}},
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

// crossShapes extends the BFS table with the shapes the cross counts
// need beyond it: a level whose frontier has fewer entries than the level
// it reaches, which levelBFS expands bottom-up and Layering, counting
// from the smaller side, top-down (a source, ten nodes joined to all of
// twenty more, those twenty on a ring), and a one-node graph.
func crossShapes(t *testing.T) []bfsShape {
	const a, b = 10, 20
	bip := graph.NewBuilder(1 + a + b)
	for i := 1; i <= a; i++ {
		bip.AddEdge(0, graph.Node(i))
		for j := a + 1; j <= a+b; j++ {
			bip.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	for j := 0; j < b; j++ {
		bip.AddEdge(graph.Node(a+1+j), graph.Node(a+1+(j+1)%b))
	}
	return append(bfsShapes(t),
		bfsShape{name: "bipartite+ring", g: bip.Build(), sources: [][]graph.Node{{0}, {0, 0}}},
		bfsShape{name: "single-node", g: graph.NewBuilder(1).Build(), sources: [][]graph.Node{{0}, {0, 0}}},
	)
}

// TestLayerBFSCrossCounts is the layering's proof obligation: step by
// step, Layering must reach the levels the queue BFS computes, report
// each previous level's summed degrees, and count for every level d the
// edges with one endpoint at level d-1 and the other at level d exactly
// as a pair-by-pair count does; past the last level a step returns
// nothing. Its level index must then hold, in Level(d), exactly the
// nodes of level d, every reached node once, and after
// CompleteAscending the same levels in ascending ids — on a dirty arena,
// over every shape of the BFS table and random graphs, with one, several
// and repeated sources. No step may read more adjacency entries than its
// frontier holds, which is what a top-down step reads. The test replays
// both direction rules from the level sizes: Step's, level by level,
// against the layering's own bottom-up steps, and levelBFS's against the
// number of bottom-up levels the kernel reports. It requires the
// layering to have taken steps both ways.
func TestLayerBFSCrossCounts(t *testing.T) {
	var topDown, bottomUp int
	a := graph.NewArena()
	check := func(what string, c *graph.CSR, sources []graph.Node) {
		t.Helper()
		n := c.NumNodes()
		sub := graph.WrapCSR(c)
		a.Dist(0, n)
		a.Queue(n)
		a.Poison()
		l := a.Layering(sub, sources)
		cross, entries := make([]int, n+1), make([]int, n+1)
		up := make([]bool, n+2) // up[d]: level d was expanded bottom-up
		last := 0
		for d := 1; ; d++ {
			reads, ups := l.Reads(), l.BottomUpSteps()
			level, e, x := l.Step()
			entries[d-1] = e
			up[d] = l.BottomUpSteps() > ups
			if read := l.Reads() - reads; read > e {
				t.Fatalf("%s %v: the step to level %d read %d entries, its frontier has %d", what, sources, d, read, e)
			}
			if len(level) == 0 {
				if x != 0 {
					t.Fatalf("%s %v: the step past the last level counts %d cross edges", what, sources, x)
				}
				break
			}
			cross[d], last = x, d
		}
		dist := l.Dist()
		sameDist(t, what, dist, queueBFS(c, nil, sources))
		checkLevels := func(stage string, ascending bool) {
			t.Helper()
			if l.Levels() != last+1 {
				t.Fatalf("%s %v %s: %d levels, the steps reached %d", what, sources, stage, l.Levels(), last+1)
			}
			listed := make([]int, n)
			for d := 0; d < l.Levels(); d++ {
				level := l.Level(d)
				for i, u := range level {
					if dist[u] != int32(d) {
						t.Fatalf("%s %v %s: Level(%d) lists node %d of level %d", what, sources, stage, d, u, dist[u])
					}
					if ascending && i > 0 && level[i-1] >= u {
						t.Fatalf("%s %v %s: Level(%d) lists %d after %d", what, sources, stage, d, u, level[i-1])
					}
					listed[u]++
				}
			}
			for u, k := range listed {
				if (k == 1) != (dist[u] != graph.INF) || k > 1 {
					t.Fatalf("%s %v %s: node %d of level %d listed %d times", what, sources, stage, u, dist[u], k)
				}
			}
		}
		checkLevels("stepped", false)
		l.CompleteAscending()
		checkLevels("ascending", true)

		want := make([]int, n+1)
		levelNodes, levelEntries := make([]int, n+1), make([]int, n+1)
		for u := 0; u < n; u++ {
			du := dist[u]
			if du == graph.INF {
				continue
			}
			levelNodes[du]++
			levelEntries[du] += c.Degree(graph.Node(u))
			for _, w := range c.Neighbors(graph.Node(u)) {
				if dw := dist[w]; graph.Node(u) < w && dw != graph.INF && (dw == du+1 || dw == du-1) {
					want[max(du, dw)]++
				}
			}
		}
		for d := range want {
			if cross[d] != want[d] {
				t.Fatalf("%s %v: cross[%d] = %d, pair count %d", what, sources, d, cross[d], want[d])
			}
			if d <= last && entries[d] != levelEntries[d] {
				t.Fatalf("%s %v: level %d has %d entries, the step reported %d", what, sources, d, levelEntries[d], entries[d])
			}
		}

		// Replay both direction rules: the step for level d runs while
		// level d-1 is non-empty and some node is unreached.
		kernelUp, reached, unvisitedEntries := 0, 0, 2*c.NumEdges()
		for d := 1; d <= n && levelNodes[d-1] > 0; d++ {
			reached += levelNodes[d-1]
			if reached == n {
				break
			}
			f := levelEntries[d-1]
			unvisitedEntries -= f
			if graph.BFSBottomUpFactor*f > unvisitedEntries+n {
				kernelUp++
			}
			want := graph.BFSBottomUpFactor*(f-2*unvisitedEntries) > n
			if up[d] != want {
				t.Fatalf("%s %v: level %d expanded bottom-up %v, the replayed rule says %v", what, sources, d, up[d], want)
			}
			if want {
				bottomUp++
			} else {
				topDown++
			}
		}
		if got := c.BFSBottomUpLevels(sources); got != kernelUp {
			t.Fatalf("%s %v: kernel took %d bottom-up levels, the replayed rule %d", what, sources, got, kernelUp)
		}
	}
	for _, sh := range crossShapes(t) {
		c := graph.NewCSR(sh.g)
		for _, sources := range sh.sources {
			check(sh.name, c, sources)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for seed := int64(0); seed < 40; seed++ {
		n := 20 + rng.Intn(300)
		p := []float64{0.5, 1.2, 3, 12, 60}[seed%5] / float64(n)
		c := graph.NewCSR(gen.ErdosRenyi(n, p, seed))
		sources := make([]graph.Node, 1+rng.Intn(4))
		for i := range sources {
			sources[i] = graph.Node(rng.Intn(n))
		}
		check("random", c, sources)
	}
	if topDown == 0 || bottomUp == 0 {
		t.Fatalf("layered %d levels top-down and %d bottom-up; both ways must run", topDown, bottomUp)
	}
	t.Logf("levels layered top-down %d, bottom-up %d", topDown, bottomUp)
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

// BenchmarkLayeringPaperLFR times the layering pruned FPA's phase 1 runs
// on dmcsbench's paper-lfr workload: a counted Layering of the query's
// component on lfr.Default(), stepped three levels (as far as phase 1
// goes on these sets) from each of its 128 truss-4 single-node query
// sets in turn. It reports the adjacency entries read per layering
// beside the time.
func BenchmarkLayeringPaperLFR(b *testing.B) {
	res, err := lfr.Generate(lfr.Default())
	if err != nil {
		b.Fatal(err)
	}
	csr := graph.NewCSR(res.G)
	compID, comps := csr.Components()
	subs := map[int32]*graph.SubCSR{}
	type layering struct {
		sub *graph.SubCSR
		src []graph.Node
	}
	var sets []layering
	for _, q := range queries.Generate(res.G, res.Communities, queries.Options{NumSets: 128, Size: 1, TrussK: 4, Seed: 1}) {
		id := compID[q[0]]
		if subs[id] == nil {
			subs[id] = graph.NewSubCSR(csr, comps[id])
		}
		u, _ := subs[id].LocalOf(q[0])
		sets = append(sets, layering{subs[id], []graph.Node{u}})
	}
	if len(sets) == 0 {
		b.Fatal("no query sets generated")
	}
	a := graph.NewArena()
	reads := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		l := a.Layering(set.sub, set.src)
		for d := 0; d < 3; d++ {
			l.Step()
		}
		reads += l.Reads()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}
