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
	for ui := range children {
		u := graph.Node(ui)
		if !v.Alive(u) {
			continue
		}
		var listed int32
		for x, pv := p.first[u], graph.Node(-1); x >= 0; x, pv = p.sib[x], x {
			if p.parent[x] != u || p.prev[x] != pv || listed == children[u] {
				t.Fatalf("child list of %d: node %d (parent %d, prev %d, want prev %d) after %d of %d children", u, x, p.parent[x], p.prev[x], pv, listed, children[u])
			}
			listed++
		}
		if listed != children[u] {
			t.Fatalf("child list of %d holds %d nodes, counted %d children", u, listed, children[u])
		}
	}
	if p.indexed {
		checkIndex(t, p)
	} else {
		checkCandidates(t, p)
	}
}

// checkCandidates verifies the weighted peel's candidate list: it holds
// every alive non-query node exactly once, and cpos is its inverse.
func checkCandidates(t *testing.T, p *ncaPeel) {
	t.Helper()
	v := p.s.v
	listed := make([]bool, p.s.sub.NumNodes())
	for i, u := range p.cand {
		if !v.Alive(u) || p.skip[u] || listed[u] || p.cpos[u] != int32(i) {
			t.Fatalf("candidate list entry %d: node %d (alive %v, skip %v, listed before %v, cpos %d)", i, u, v.Alive(u), p.skip[u], listed[u], p.cpos[u])
		}
		listed[u] = true
	}
	for ui, l := range listed {
		if u := graph.Node(ui); v.Alive(u) && !p.skip[u] && !l {
			t.Fatalf("candidate %d is missing from the candidate list", u)
		}
	}
}

// checkIndex verifies the degree-class index: every alive candidate is in
// its class's heap or parked under its live witness, never both, and its
// order key is k<<32 | rank, rank being its place among all nodes under
// (farther from the query, then smaller id); each class holds one degree
// in heap order (k ascending, then farther from the query, then smaller
// id), and its head-table entry is its head's key, or -1 exactly when it
// is empty; no dead or query node is indexed; and argmax returns the node
// that a pickScore / beats scan over the heap heads returns.
func checkIndex(t *testing.T, p *ncaPeel) {
	t.Helper()
	v, n := p.s.v, p.s.sub.NumNodes()
	byRank := make([]graph.Node, n)
	for i := range byRank {
		byRank[i] = graph.Node(i)
	}
	slices.SortFunc(byRank, func(a, b graph.Node) int {
		if p.dist[a] != p.dist[b] {
			return int(p.dist[b] - p.dist[a])
		}
		return int(a - b)
	})
	rank := make([]int64, n)
	for r, u := range byRank {
		rank[u] = int64(r)
	}
	parkedUnder := make([]graph.Node, n)
	for i := range parkedUnder {
		parkedUnder[i] = -1
	}
	for wi := 0; wi < n; wi++ {
		w := graph.Node(wi)
		for x := p.parked[w]; x >= 0; x = p.next[x] {
			if !v.Alive(w) || p.witness[x] != w || parkedUnder[x] >= 0 {
				t.Fatalf("node %d parked under %d (alive %v), witness %d, parked before under %d", x, w, v.Alive(w), p.witness[x], parkedUnder[x])
			}
			parkedUnder[x] = w
		}
	}
	for ui := 0; ui < n; ui++ {
		u := graph.Node(ui)
		inHeap := p.pos[u] >= 0
		if p.skip[u] {
			if inHeap || parkedUnder[u] >= 0 {
				t.Fatalf("dead or query node %d is indexed: pos %d, parked under %d", u, p.pos[u], parkedUnder[u])
			}
			continue
		}
		if inHeap == (parkedUnder[u] >= 0) {
			t.Fatalf("candidate %d: pos %d, parked under %d", u, p.pos[u], parkedUnder[u])
		}
		if want := int64(p.k[u])<<32 | rank[u]; p.ord[u] != want {
			t.Fatalf("candidate %d (k=%v rank %d, parked under %d): order key %#x, want %#x", u, p.k[u], rank[u], parkedUnder[u], p.ord[u], want)
		}
		if c, i := p.cls[u], p.pos[u]; inHeap && (i < p.cOff[c] || i >= p.cOff[c]+p.cLen[c] || p.heap[i] != u) {
			t.Fatalf("candidate %d: pos %d outside class %d's heap", u, i, c)
		}
	}
	ranksAbove := func(a, b graph.Node) bool {
		return p.k[a] < p.k[b] || p.k[a] == p.k[b] && (p.dist[a] > p.dist[b] || p.dist[a] == p.dist[b] && a < b)
	}
	dS := v.NodeWeightSum()
	var best graph.Node = -1
	bestScore := math.Inf(-1)
	for c := 0; c < p.nc; c++ {
		base, end := p.cOff[c], p.cOff[c]+p.cLen[c]
		if end > p.cOff[c+1] {
			t.Fatalf("class %d holds %d nodes in a segment of %d", c, p.cLen[c], p.cOff[c+1]-base)
		}
		if base == end {
			if p.head[c] != -1 {
				t.Fatalf("class %d is empty; head key %#x, want -1", c, p.head[c])
			}
			continue
		}
		u := p.heap[base]
		if p.head[c] != p.ord[u] || p.cdeg[c] != p.s.wdeg[u] {
			t.Fatalf("class %d: head key %#x and degree %v; head %d has key %#x and degree %v", c, p.head[c], p.cdeg[c], u, p.ord[u], p.s.wdeg[u])
		}
		if sc := p.pickScore(u, dS); p.beats(u, sc, best, bestScore) {
			best, bestScore = u, sc
		}
		for i := base + 1; i < end; i++ {
			u, up := p.heap[i], p.heap[base+(i-base-1)/2]
			if p.s.wdeg[u] != p.s.wdeg[up] || ranksAbove(u, up) {
				t.Fatalf("class %d: node %d (d=%v k=%v dist=%d) under %d (d=%v k=%v dist=%d)", c,
					u, p.s.wdeg[u], p.k[u], p.dist[u], up, p.s.wdeg[up], p.k[up], p.dist[up])
			}
		}
	}
	scored := p.scored // a check must not move the work counters
	if got := p.argmax(); got != best {
		t.Fatalf("argmax picked %d; a pickScore scan over the heads picks %d", got, best)
	}
	p.scored = scored
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
// or stops where they find none.
func peelChecked(t *testing.T, sub *graph.SubCSR, lq, comp []graph.Node, theta bool) {
	t.Helper()
	stepChecked(t, newNCAPeel(NewArena(), sub, lq, comp, Options{TrackOrder: true}, theta))
}

// stepChecked is peelChecked on a peel already set up.
func stepChecked(t *testing.T, p *ncaPeel) {
	t.Helper()
	checkCertificates(t, p)
	sub := p.s.sub
	for {
		want := textbookPick(p, p.s.v.ArticulationPoints())
		if !p.step() {
			if want >= 0 {
				t.Fatalf("peel stopped after %d removals; the textbook loop removes %d next", len(p.s.trace), sub.GlobalOf(want))
			}
			break
		}
		if removed, _ := sub.LocalOf(p.s.trace[len(p.s.trace)-1]); removed != want {
			t.Fatalf("removal %d took %d; the textbook loop takes %d", len(p.s.trace), sub.GlobalOf(removed), sub.GlobalOf(want))
		}
		checkCertificates(t, p)
	}
}

// TestNCAPeelUnderCertificates peels an n = 300 LFR graph, unweighted
// (the degree-class index) and weighted (the candidate list), from a
// one-node and a three-node query with both picks, checking every
// certificate after every removal and every step against the textbook
// loop's.
func TestNCAPeelUnderCertificates(t *testing.T) {
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
				peelChecked(t, sub, lq, comp, theta)
			}
		}
	}
}

// FuzzNCACertificates peels fuzzed sparse graphs — a random tree plus a
// fuzzed number of extra edges, so articulation points are everywhere —
// and checks after every removal, against a from-scratch Tarjan, that
// parent is a spanning tree of the alive set with falling keys, every
// witnessed node is an articulation point, the k table equals a rescan,
// the degree-class index (unweighted) or the candidate list (weighted)
// holds exactly the candidates, and the removed node is the one the
// textbook loop removes.
func FuzzNCACertificates(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), false, false, uint8(1))
	f.Add(int64(2), uint8(200), uint8(30), true, false, uint8(3))
	f.Add(int64(3), uint8(120), uint8(0), false, true, uint8(2))
	f.Add(int64(4), uint8(255), uint8(120), true, true, uint8(1))
	f.Add(int64(5), uint8(0), uint8(255), false, false, uint8(9))

	f.Fuzz(func(t *testing.T, seed int64, size, extra uint8, weighted, theta bool, nq uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(size)
		g := sparseGraph(rng, n, n*int(extra)/64, weighted)
		q := make([]graph.Node, 0, 4)
		for _, u := range rng.Perm(n)[:1+int(nq)%min(n, 4)] {
			q = append(q, graph.Node(u))
		}
		sub, lq, comp := localQuery(t, graph.NewCSR(g), q)
		peelChecked(t, sub, lq, comp, theta)
	})
}

// sparseGraph is a random tree on n nodes plus up to extra random edges.
func sparseGraph(rng *rand.Rand, n, extra int, weighted bool) *graph.Graph {
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
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			addEdge(graph.Node(u), graph.Node(v))
		}
	}
	return b.Build()
}

// TestNCARehangNearKeyLimit starts checked peels with the fresh-key
// counter one below MaxInt32, the dead-node key, so the first rehang must
// rebuild the tree before it hands out keys.
func TestNCARehangNearKeyLimit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := sparseGraph(rand.New(rand.NewSource(seed)), 120, 30, false)
		sub, lq, comp := localQuery(t, graph.NewCSR(g), []graph.Node{0})
		for _, theta := range []bool{false, true} {
			p := newNCAPeel(NewArena(), sub, lq, comp, Options{}, theta)
			p.nextKey = math.MaxInt32 - 1
			stepChecked(t, p)
			if p.nextKey == math.MaxInt32-1 {
				t.Fatalf("seed %d theta=%v: no rehang ran", seed, theta)
			}
		}
	}
}

// TestNCAWorkScaling bounds how NCA's work grows with the graph. It peels
// Table-2 LFR graphs (lfr.Default(), seed 1) at n = 1000 and 4000 from
// five one-node queries each and requires the summed work — adjacency
// entries read by makeLeaf, rehang and remove, pick scores evaluated, and
// heap sift steps — to grow less than 4^1.5 = 8 times, for Λ and for Θ.
// Scoring every
// candidate at every removal grows about 16 times.
func TestNCAWorkScaling(t *testing.T) {
	var work [2][2]int // [size][theta]
	for i, n := range []int{1000, 4000} {
		cfg := lfr.Default()
		cfg.N = n
		res, err := lfr.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		csr := graph.NewCSR(res.G)
		for j, theta := range []bool{false, true} {
			for qi := 0; qi < 5; qi++ {
				sub, lq, comp := localQuery(t, csr, []graph.Node{graph.Node(qi * n / 5)})
				p := newNCAPeel(NewArena(), sub, lq, comp, Options{}, theta)
				for p.step() {
				}
				work[i][j] += p.work()
			}
		}
	}
	for j, name := range []string{"NCA", "NCA-DR"} {
		ratio := float64(work[1][j]) / float64(work[0][j])
		t.Logf("%s work: %d at n=1000, %d at n=4000 (%.2fx)", name, work[0][j], work[1][j], ratio)
		if ratio >= 8 {
			t.Errorf("%s work grew %.2fx from n=1000 to n=4000, want < 8", name, ratio)
		}
	}
}
