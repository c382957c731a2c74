package dmcs

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
	"dmcs/internal/modularity"
)

// reweighted copies g with a deterministic random weight in (0.5, 2.5) on
// every edge.
func reweighted(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	wb := graph.NewBuilder(g.NumNodes())
	g.Edges(func(u, v graph.Node) bool {
		wb.SetWeight(u, v, 0.5+2*rng.Float64())
		return true
	})
	return wb.Build()
}

// ncaQueries returns a 1-node and a 3-node query inside start's component.
func ncaQueries(g *graph.Graph, start graph.Node) [][]graph.Node {
	comp, _ := graph.NewCSR(g).Component(start)
	qs := [][]graph.Node{{start}}
	if len(comp) >= 4 {
		qs = append(qs, []graph.Node{comp[0], comp[len(comp)/2], comp[len(comp)-1]})
	}
	return qs
}

// localQuery extracts q's component of csr the way SearchCSR does and
// translates q into its local ids.
func localQuery(t testing.TB, csr *graph.CSR, q []graph.Node) (*graph.SubCSR, []graph.Node, []graph.Node) {
	t.Helper()
	comp, err := queryComponentArena(NewArena(), csr, q)
	if err != nil {
		t.Fatal(err)
	}
	comp = slices.Clone(comp)
	sub := graph.NewSubCSR(csr, comp)
	lq := make([]graph.Node, len(q))
	for i, u := range q {
		lq[i], _ = sub.LocalOf(u)
	}
	return sub, lq, comp
}

// checkCertificates verifies the peel's tables against a from-scratch
// Tarjan of the alive view.
func checkCertificates(t *testing.T, p *ncaPeel) {
	t.Helper()
	v, c := p.s.v, p.s.sub
	n := c.NumNodes()
	art := v.ArticulationPoints()
	children := make([]int32, n)
	for ui := 0; ui < n; ui++ {
		u := graph.Node(ui)
		if !v.Alive(u) {
			if p.key[u] != math.MaxInt32 || p.parent[u] != -1 || !p.skip[u] {
				t.Fatalf("dead node %d: key=%d parent=%d skip=%v", u, p.key[u], p.parent[u], p.skip[u])
			}
			continue
		}
		if got, want := math.Float64bits(p.k[u]), math.Float64bits(v.WeightedDegreeIn(u)); got != want {
			t.Fatalf("k[%d] = %x, from-scratch rescan %x", u, got, want)
		}
		if w := p.witness[u]; w >= 0 && v.Alive(w) && !art[u] {
			t.Fatalf("node %d carries live witness %d but is not an articulation point", u, w)
		}
		pr := p.parent[u]
		if u == p.root {
			if pr != -1 {
				t.Fatalf("root %d has parent %d", u, pr)
			}
			continue
		}
		// An alive parent across an edge with a smaller key, for every
		// alive node but the root: following parents strictly descends
		// in key, so it ends at the root — a spanning tree.
		if pr < 0 || !v.Alive(pr) || !slices.Contains(c.Neighbors(u), pr) || p.key[pr] >= p.key[u] {
			t.Fatalf("node %d (key %d): bad tree parent %d", u, p.key[u], pr)
		}
		children[pr]++
	}
	for u := range children {
		if v.Alive(graph.Node(u)) && children[u] != p.nchild[u] {
			t.Fatalf("nchild[%d] = %d, counted %d", u, p.nchild[u], children[u])
		}
	}
}

// textbookPick is the node the textbook loop removes next from p's alive
// set, given its articulation points: the best alive non-query node that
// is not one, under scan's order; -1 when there is none or only the query
// is left.
func textbookPick(p *ncaPeel, art []bool) graph.Node {
	s := p.s
	if s.v.NumAlive() <= p.nq {
		return -1
	}
	var best graph.Node = -1
	var bestScore float64
	for ui := 0; ui < s.sub.NumNodes(); ui++ {
		u := graph.Node(ui)
		if p.skip[u] || art[u] {
			continue
		}
		k := s.v.WeightedDegreeIn(u)
		sc := modularity.LambdaF(s.wG, s.v.NodeWeightSum(), k, s.wdeg[u])
		if p.theta {
			sc = modularity.ThetaF(s.wdeg[u], k)
		}
		if best < 0 || sc > bestScore || sc == bestScore && (p.dist[u] > p.dist[best] || p.dist[u] == p.dist[best] && u < best) {
			best, bestScore = u, sc
		}
	}
	return best
}

// peelChecked drives one NCA peel a step at a time, checking after every
// removal that the certificates hold, and that every step removes the node
// that a from-scratch Tarjan pass and a full rescan pick (textbookPick),
// or stops where they find none. It returns how many times the sub-CSR was
// re-compacted.
func peelChecked(t *testing.T, sub *graph.SubCSR, lq, comp []graph.Node, theta bool) int {
	t.Helper()
	p := newNCAPeel(NewArena(), sub, lq, comp, Options{TrackOrder: true}, theta)
	checkCertificates(t, p)
	recompactions := 0
	for {
		before := p.s.sub
		want := textbookPick(p, p.s.v.ArticulationPoints())
		if !p.step() {
			if want >= 0 {
				t.Fatalf("peel stopped after %d removals; the textbook loop removes %d next", len(p.s.trace), before.GlobalOf(want))
			}
			break
		}
		if removed, _ := before.LocalOf(p.s.trace[len(p.s.trace)-1]); removed != want {
			t.Fatalf("removal %d took %d; the textbook loop takes %d", len(p.s.trace), before.GlobalOf(removed), before.GlobalOf(want))
		}
		if p.s.sub != before {
			recompactions++
		}
		checkCertificates(t, p)
	}
	return recompactions
}

// TestNCARecompactsUnderCertificates peels a graph large enough to
// re-compact at least three times with every certificate checked after
// every removal, so the remap of root, tree, witnesses and k table is
// exercised while every step stays the textbook loop's.
func TestNCARecompactsUnderCertificates(t *testing.T) {
	cfg := lfr.Default()
	cfg.N, cfg.MaxDeg, cfg.MaxComm = 300, 60, 100
	res, err := lfr.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{res.G, reweighted(res.G, 3)} {
		for _, q := range ncaQueries(g, res.Communities[0][0]) {
			sub, lq, comp := localQuery(t, graph.NewCSR(g), q)
			for _, theta := range []bool{false, true} {
				if recompactions := peelChecked(t, sub, lq, comp, theta); recompactions < 3 {
					t.Fatalf("weighted=%v theta=%v q=%v: %d re-compactions, want >= 3", g.Weighted(), theta, q, recompactions)
				}
			}
		}
	}
}

// FuzzNCACertificates peels fuzzed sparse graphs — a random tree plus a
// fuzzed number of extra edges, so articulation points are everywhere —
// and checks after every removal, against a from-scratch Tarjan, that
// parent is a spanning tree of the alive set with falling keys, every
// witnessed node is an articulation point, the k table equals a rescan,
// and the removed node is the one the textbook loop removes.
func FuzzNCACertificates(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), false, false, uint8(1))
	f.Add(int64(2), uint8(200), uint8(30), true, false, uint8(3))
	f.Add(int64(3), uint8(120), uint8(0), false, true, uint8(2))
	f.Add(int64(4), uint8(255), uint8(120), true, true, uint8(1))
	f.Add(int64(5), uint8(0), uint8(255), false, false, uint8(9))

	f.Fuzz(func(t *testing.T, seed int64, size, extra uint8, weighted, theta bool, nq uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(size)
		b := graph.NewBuilder(n)
		addEdge := func(u, v graph.Node) {
			if weighted {
				b.SetWeight(u, v, 0.5+2*rng.Float64())
			} else {
				b.AddEdge(u, v)
			}
		}
		for i := 1; i < n; i++ {
			addEdge(graph.Node(rng.Intn(i)), graph.Node(i))
		}
		for i := 0; i < n*int(extra)/64; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				addEdge(graph.Node(u), graph.Node(v))
			}
		}
		q := make([]graph.Node, 0, 4)
		for _, u := range rng.Perm(n)[:1+int(nq)%min(n, 4)] {
			q = append(q, graph.Node(u))
		}
		sub, lq, comp := localQuery(t, graph.NewCSR(b.Build()), q)
		peelChecked(t, sub, lq, comp, theta)
	})
}
