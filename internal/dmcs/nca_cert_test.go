package dmcs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/lfr"
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

// checkNCAAgainstReference pins both NCA variants to the
// per-removal-Tarjan reference: community, Float64bits(Score), Iterations
// and the full removal trace.
func checkNCAAgainstReference(t *testing.T, name string, g *graph.Graph, q []graph.Node) {
	t.Helper()
	csr := graph.NewCSR(g)
	sub, lq, comp := localQuery(t, csr, q)
	for _, variant := range []Variant{VariantNCA, VariantNCADR} {
		want := refRunNCA(sub, lq, comp, Options{TrackOrder: true}, refPick(variant == VariantNCADR))
		got, err := SearchCSR(csr, q, variant, Options{TrackOrder: true})
		if err != nil {
			t.Fatalf("%s %v: %v", name, variant, err)
		}
		assertSameResult(t, want, got, "%s %v q=%v", name, variant, q)
	}
}

// TestNCAMatchesPerRemovalTarjan is the certificate loop's proof
// obligation: it removes exactly the nodes, in exactly the order, that a
// from-scratch Tarjan pass before every removal would.
func TestNCAMatchesPerRemovalTarjan(t *testing.T) {
	sizes, sparse := []int{300, 1000, 2000}, 40
	if testing.Short() {
		sizes, sparse = []int{300}, 10
	}
	for _, n := range sizes {
		for _, mu := range []float64{0.1, 0.2, 0.5} {
			cfg := lfr.Default()
			cfg.N, cfg.Mu, cfg.MaxDeg, cfg.MaxComm = n, mu, 60, n/3
			res, err := lfr.Generate(cfg)
			if err != nil {
				t.Fatalf("lfr n=%d mu=%v: %v", n, mu, err)
			}
			for _, g := range []*graph.Graph{res.G, reweighted(res.G, int64(n))} {
				for _, q := range ncaQueries(g, res.Communities[0][0]) {
					name := fmt.Sprintf("lfr n=%d mu=%v weighted=%v", n, mu, g.Weighted())
					checkNCAAgainstReference(t, name, g, q)
				}
			}
		}
	}

	// sparse G(n, 2.5/n): trees hanging off a small core, so most nodes
	// are articulation points and the witnesses carry the scan
	for seed := int64(0); seed < int64(sparse); seed++ {
		g := gen.ErdosRenyi(200, 2.5/200, seed)
		hub := graph.Node(0)
		for u := 0; u < g.NumNodes(); u++ {
			if g.Degree(graph.Node(u)) > g.Degree(hub) {
				hub = graph.Node(u)
			}
		}
		if seed%2 == 1 {
			g = reweighted(g, seed)
		}
		for _, q := range ncaQueries(g, hub) {
			checkNCAAgainstReference(t, fmt.Sprintf("sparse seed=%d", seed), g, q)
		}
	}

	path := graph.NewBuilder(50)
	star := graph.NewBuilder(31)
	for i := 1; i < 50; i++ {
		path.AddEdge(graph.Node(i-1), graph.Node(i))
	}
	for i := 1; i <= 30; i++ {
		star.AddEdge(0, graph.Node(i))
	}
	ring, _ := gen.RingOfCliques(8, 6)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		q    []graph.Node
	}{
		{"path middle", path.Build(), []graph.Node{25}},
		{"path end", path.Build(), []graph.Node{0}},
		{"path both ends", path.Build(), []graph.Node{0, 49}},
		{"star leaf", star.Build(), []graph.Node{7}},
		{"star centre", star.Build(), []graph.Node{0}},
		{"ring of cliques", ring, []graph.Node{0}},
		{"ring of cliques x3", ring, []graph.Node{0, 13, 40}},
	} {
		checkNCAAgainstReference(t, c.name, c.g, c.q)
	}
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

// peelChecked drives one NCA peel a step at a time, checking after every
// removal that the certificates hold and that the removed node was not an
// articulation point of the alive set it was removed from. It returns the
// result and how many times the sub-CSR was re-compacted.
func peelChecked(t *testing.T, sub *graph.SubCSR, lq, comp []graph.Node, theta bool) (*Result, int) {
	t.Helper()
	p := newNCAPeel(NewArena(), sub, lq, comp, Options{TrackOrder: true}, theta)
	checkCertificates(t, p)
	recompactions := 0
	for {
		before, artBefore := p.s.sub, p.s.v.ArticulationPoints()
		if !p.step() {
			break
		}
		removed, _ := before.LocalOf(p.s.trace[len(p.s.trace)-1])
		if artBefore[removed] {
			t.Fatalf("removal %d took out articulation point %d", len(p.s.trace), before.GlobalOf(removed))
		}
		if p.s.sub != before {
			recompactions++
		}
		checkCertificates(t, p)
	}
	return p.s.result(), recompactions
}

// TestNCARecompactsUnderCertificates peels a graph large enough to
// re-compact at least three times with every certificate checked after
// every removal, so the remap of root, tree, witnesses and k table is
// exercised and the result still equals the reference.
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
				got, recompactions := peelChecked(t, sub, lq, comp, theta)
				if recompactions < 3 {
					t.Fatalf("weighted=%v theta=%v: %d re-compactions, want >= 3", g.Weighted(), theta, recompactions)
				}
				want := refRunNCA(sub, lq, comp, Options{TrackOrder: true}, refPick(theta))
				assertSameResult(t, want, got, "weighted=%v theta=%v q=%v", g.Weighted(), theta, q)
			}
		}
	}
}

// FuzzNCACertificates peels fuzzed sparse graphs — a random tree plus a
// fuzzed number of extra edges, so articulation points are everywhere —
// and checks after every removal, against a from-scratch Tarjan, that
// parent is a spanning tree of the alive set with falling keys, every
// witnessed node is an articulation point, the k table equals a rescan,
// and the removed node was not an articulation point; the finished peel
// must equal the per-removal-Tarjan reference.
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
		got, _ := peelChecked(t, sub, lq, comp, theta)
		want := refRunNCA(sub, lq, comp, Options{TrackOrder: true}, refPick(theta))
		assertSameResult(t, want, got, "seed=%d n=%d extra=%d weighted=%v theta=%v q=%v", seed, n, extra, weighted, theta, q)
	})
}

func assertSameResult(t *testing.T, want, got *Result, format string, args ...any) {
	t.Helper()
	if math.Float64bits(want.Score) != math.Float64bits(got.Score) {
		t.Errorf(format+": score %v (%x) vs serial %v (%x)", append(args, got.Score, math.Float64bits(got.Score), want.Score, math.Float64bits(want.Score))...)
	}
	if want.Iterations != got.Iterations {
		t.Errorf(format+": iterations %d vs serial %d", append(args, got.Iterations, want.Iterations)...)
	}
	if want.TimedOut != got.TimedOut {
		t.Errorf(format+": timedOut %v vs serial %v", append(args, got.TimedOut, want.TimedOut)...)
	}
	if len(want.Community) != len(got.Community) {
		t.Fatalf(format+": community size %d vs serial %d", append(args, len(got.Community), len(want.Community))...)
	}
	for i := range want.Community {
		if want.Community[i] != got.Community[i] {
			t.Fatalf(format+": community[%d] = %d vs serial %d", append(args, i, got.Community[i], want.Community[i])...)
		}
	}
	if len(want.RemovalOrder) != len(got.RemovalOrder) {
		t.Fatalf(format+": removal order length %d vs serial %d", append(args, len(got.RemovalOrder), len(want.RemovalOrder))...)
	}
	for i := range want.RemovalOrder {
		if want.RemovalOrder[i] != got.RemovalOrder[i] {
			t.Fatalf(format+": removalOrder[%d] = %d vs serial %d", append(args, i, got.RemovalOrder[i], want.RemovalOrder[i])...)
		}
	}
}
