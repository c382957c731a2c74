package dmcs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
)

// removeBasedPhase1 is layer pruning's phase 1 as it ran before the
// read-only sweep, kept as the sweep's reference: an all-alive view of
// sub, Remove for every node of each layer in ascending id, outermost
// layer first, the view's aggregates scored after each. layers are
// oracleLayers'. It returns the statistics of every prefix (stats[j]:
// distance <= j) and the best one's bound.
func removeBasedPhase1(sub *graph.SubCSR, layers [][]graph.Node, opts Options) (stats []prefixStats, bestJ int) {
	v := graph.NewArena().ViewAll(0, sub)
	read := func() prefixStats {
		return prefixStats{wC: v.InternalWeight(), dS: v.NodeWeightSum(), size: v.NumAlive()}
	}
	wG, maxD := sub.TotalWeight(), len(layers)-1
	stats = make([]prefixStats, maxD+1)
	stats[maxD] = read()
	bestJ, bestScore := maxD, scoreStats(stats[maxD], wG, opts)
	for d := maxD; d >= 1; d-- {
		for _, u := range layers[d] {
			v.Remove(u)
		}
		stats[d-1] = read()
		if sc := scoreStats(stats[d-1], wG, opts); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}
	return stats, bestJ
}

// oracleLayers layers sub by distance from sources with a plain queue
// BFS of its own: the distance table, and the nodes at each distance in
// ascending id order.
func oracleLayers(sub *graph.SubCSR, sources []graph.Node) (dist []int32, layers [][]graph.Node) {
	dist = make([]int32, sub.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	var queue []graph.Node
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range sub.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	for u, d := range dist {
		for int(d) >= len(layers) {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], graph.Node(u))
	}
	return dist, layers
}

// withIslands copies g and adds two small components beside it, so that
// g's nodes are a proper sub-component (extracted, relabelled sub-CSR)
// and not the whole snapshot (wrapped one).
func withIslands(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	b := graph.NewBuilder(n + 5)
	g.Edges(func(u, v graph.Node) bool {
		if g.Weighted() {
			b.SetWeight(u, v, g.EdgeWeight(u, v))
		} else {
			b.AddEdge(u, v)
		}
		return true
	})
	for _, e := range [][2]int{{n, n + 1}, {n + 1, n + 2}, {n + 3, n + 4}} {
		if g.Weighted() {
			b.SetWeight(graph.Node(e[0]), graph.Node(e[1]), 1.25)
		} else {
			b.AddEdge(graph.Node(e[0]), graph.Node(e[1]))
		}
	}
	return b.Build()
}

// sweepObjectives are the objectives the sweeps are checked under.
var sweepObjectives = []Options{
	{LayerPruning: true},
	{LayerPruning: true, Objective: ClassicModularity},
	{LayerPruning: true, Objective: GeneralizedModularityDensity, Chi: 1.5},
}

// TestPrefixSweepMatchesRemoval is phase 1's proof obligation. On random
// weighted and unweighted graphs — as a whole snapshot and as one
// component of a larger one — with one to three query nodes (several make
// steinerProtect put whole paths at distance 0), and on two fixtures with
// exactly tied prefix scores, under every objective, the prefix phase 1
// keeps must be the one the removal-based loop picks, with its statistics
// equal, Float64bits for the floats, to what the view holds after Remove
// has taken the layers outside it apart node by node. A weighted sub's
// outside-in sweep must hold those statistics for every prefix. For an
// unweighted sub's inside-out sweep, pruneBound at every stop check — once
// level d is known, for every d — must be at least, up to rounding, the
// score of every prefix B_d' with d' >= d that the removal-based loop
// reaches. (The
// differential tests check the whole pruned search against the reference
// peel.)
func TestPrefixSweepMatchesRemoval(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(700 + seed))
			n := 40 + rng.Intn(160)
			g := diffRandomGraph(rng, n, []float64{0.01, 0.03, 0.08}[seed%3], weighted)
			if seed%2 == 1 {
				g = withIslands(g)
			}
			sub := componentSub(graph.NewCSR(g), 0)
			k := sub.NumNodes()
			for qs := 1; qs <= 3; qs++ {
				var lq []graph.Node
				for _, l := range rng.Perm(k)[:qs] {
					lq = append(lq, graph.Node(l))
				}
				checkPrefixSweep(t, fmt.Sprintf("weighted=%v seed=%d", weighted, seed), sub, lq)
			}
		}
	}
	for _, tc := range tiedPrefixes {
		b := graph.NewBuilder(tc.n)
		for _, e := range tc.edges {
			b.AddEdge(graph.Node(e[0]), graph.Node(e[1]))
		}
		sub := componentSub(graph.NewCSR(b.Build()), tc.q)
		lq, _ := sub.LocalOf(tc.q)
		stats, wantJ := checkPrefixSweep(t, tc.name, sub, []graph.Node{lq})
		wG := sub.TotalWeight()
		tied := math.Float64bits(scoreStats(stats[tc.j], wG, Options{})) == math.Float64bits(scoreStats(stats[tc.j+1], wG, Options{}))
		if wantJ != tc.j || !tied {
			t.Fatalf("%s: the removal-based loop keeps B_%d, the fixture's tie is at B_%d (tied: %v)", tc.name, wantJ, tc.j, tied)
		}
	}
}

// componentSub is the sub-CSR of u's component: the whole snapshot
// wrapped, or the component extracted.
func componentSub(csr *graph.CSR, u graph.Node) *graph.SubCSR {
	comp, _ := csr.Component(u)
	if len(comp) == csr.NumNodes() {
		return graph.WrapCSR(csr)
	}
	return graph.NewSubCSR(csr, comp)
}

// tiedPrefixes are graphs on which two distance prefixes of q's component
// score exactly the same density modularity, Float64bits equal, and
// beat every other prefix: B_j and B_{j+1}, of which the sweeps must keep
// the smaller.
var tiedPrefixes = []struct {
	name  string
	n     int
	edges [][2]int
	q     graph.Node
	j     int
}{
	// B_1 = {1, 2}: w_C 1, d_S 4, 2 nodes; B_2 adds 3 and 4: w_C 3, d_S 8,
	// 4 nodes; w_G 8, so both score 1/4.
	{"tie-n7", 7, [][2]int{{1, 2}, {1, 4}, {0, 4}, {0, 6}, {5, 6}, {3, 5}, {0, 5}, {1, 3}}, 2, 1},
	{"tie-n10", 10, [][2]int{{3, 7}, {0, 7}, {0, 5}, {2, 5}, {2, 9}, {8, 9}, {1, 8}, {1, 6}, {4, 6},
		{0, 2}, {2, 6}, {3, 4}, {3, 5}, {4, 9}, {5, 7}, {6, 7}, {6, 9}}, 8, 1},
}

// checkPrefixSweep runs the checks of TestPrefixSweepMatchesRemoval on
// one query (local ids) of sub and returns the statistics of every prefix
// and the prefix the removal-based loop keeps under density modularity.
func checkPrefixSweep(t *testing.T, what string, sub *graph.SubCSR, lq []graph.Node) (want []prefixStats, densityJ int) {
	t.Helper()
	k := sub.NumNodes()
	a := NewArena()
	protected := steinerProtect(a, sub, lq)
	dist, layers := oracleLayers(sub, protected)
	maxD := len(layers) - 1
	want, _ = removeBasedPhase1(sub, layers, sweepObjectives[0])
	same := func(st, want prefixStats) bool {
		return math.Float64bits(st.wC) == math.Float64bits(want.wC) &&
			math.Float64bits(st.dS) == math.Float64bits(want.dS) && st.size == want.size
	}

	if sub.Weighted() {
		st := prefixStats{wC: sub.InternalWeight(), dS: sub.MemberWeightSum(), size: k}
		for d := maxD; ; d-- {
			if !same(st, want[d]) {
				t.Fatalf("%s q=%v prefix %d of %d: sweep %+v, removal %+v", what, lq, d, maxD, st, want[d])
			}
			if d == 0 {
				break
			}
			st = dropLayer(sub, dist, layers[d], int32(d), st)
		}
	}

	wG, dC := sub.TotalWeight(), sub.MemberWeightSum()
	for i, opts := range sweepObjectives {
		_, wantJ := removeBasedPhase1(sub, layers, opts)
		if i == 0 {
			densityJ = wantJ
		}
		var poll deadlinePoller
		l := a.g.Layering(sub, protected)
		if sub.Weighted() {
			l.CompleteAscending()
			if l.Levels() != len(layers) {
				t.Fatalf("%s q=%v: %d levels, the oracle's %d", what, lq, l.Levels(), len(layers))
			}
			for d, layer := range layers {
				if !slices.Equal(l.Level(d), layer) {
					t.Fatalf("%s q=%v: Level(%d) = %v, the oracle's layer %v", what, lq, d, l.Level(d), layer)
				}
			}
			gotJ, timedOut := bestPrefix(l, sub, opts, &poll)
			if gotJ != wantJ || timedOut {
				t.Fatalf("%s q=%v objective=%d: bestPrefix = (%d, %v), removal-based loop keeps %d of %d layers",
					what, lq, opts.Objective, gotJ, timedOut, wantJ, maxD)
			}
			continue
		}
		for d := 1; d <= maxD; d++ {
			bound := pruneBound(want[d], dC, wG, opts)
			for d2 := d; d2 <= maxD; d2++ {
				// The bound and a score are the same real number at
				// worst (the whole component, with a volume at the
				// clamp), computed two ways a few ulps apart; the sweep's
				// pruneMargin is a thousand times this slack.
				if sc := scoreStats(want[d2], wG, opts); sc > bound+1e-12*math.Abs(sc) {
					t.Fatalf("%s q=%v objective=%d: bound %v at level %d, B_%d scores %v", what, lq, opts.Objective, bound, d, d2, sc)
				}
			}
		}
		b, timedOut := sweepBall(l, sub, opts, &poll)
		if b.j != wantJ || timedOut || !same(b.st, want[wantJ]) || l.Levels() <= wantJ {
			t.Fatalf("%s q=%v objective=%d: sweepBall keeps B_%d %+v (timed out %v), removal-based loop B_%d %+v of %d layers",
				what, lq, opts.Objective, b.j, b.st, timedOut, wantJ, want[wantJ], maxD)
		}
	}
	return want, densityJ
}

// TestFPAPrunedWork is pruned FPA's work gate. It searches Table-2 LFR
// graphs (lfr.Default(), seed 1) at n = 1000, 4000 and 5000 from 64
// one-node query sets each, drawn as paper-lfr draws them (truss-4 nodes
// of ground-truth communities), and counts the adjacency entries that
// phase 1 and the ball view read. Per set, phase 1's layering must read
// no more than the entries of the levels it stepped from, what stepping
// every level top-down reads, which a bottom-up step that counts its
// cross edges from the frontier side breaks. Summed over the sets the
// reads must stay within a third of the searched components' entries
// (2|E| each) at n = 5000, the paper's size — layering whole components
// reads most of them — and grow less than 8 times from n = 1000 to 4000.
// They come to 0.575, 0.356 and 0.260 of the entries at n = 1000, 4000
// and 5000. At n = 1000
// the fraction is only logged: there lfr.Default()'s degree cap of 300
// puts about three quarters of the component within two hops, and
// scoring that ball exactly, which most sets need, means counting the
// edges between levels 2 and 3, reading level 2's entries.
func TestFPAPrunedWork(t *testing.T) {
	sizes := []int{1000, 4000, 5000}
	reads := make([]int, len(sizes))
	for i, n := range sizes {
		cfg := lfr.Default()
		cfg.N = n
		res, err := lfr.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		csr := graph.NewCSR(res.G)
		compID, comps := res.G.Components()
		subs := map[int32]*graph.SubCSR{}
		a, entries, over := NewArena(), 0, 0
		opts := Options{LayerPruning: true}
		for _, q := range queries.Generate(res.G, res.Communities, queries.Options{NumSets: 64, Size: 1, TrussK: 4, Seed: 1}) {
			id := compID[q[0]]
			sub := subs[id]
			if sub == nil {
				sub = graph.NewSubCSR(csr, comps[id])
				subs[id] = sub
			}
			if _, err := SearchSub(a, sub, q, comps[id], VariantFPA, opts); err != nil {
				t.Fatal(err)
			}
			reads[i] += a.prunedReads()
			entries += 2 * sub.NumEdges()

			// Phase 1 once more on its own, to hold its layering to the
			// all-top-down cost: the entries of the levels it stepped from.
			var poll deadlinePoller
			l := a.g.Layering(sub, steinerProtect(a, sub, a.localQ))
			b, _ := sweepBall(l, sub, opts, &poll)
			if got := l.Reads() + b.outerEntries; got != a.prunedReads() {
				t.Fatalf("n=%d q=%v: phase 1 replayed reads %d entries, the search %d", n, q, got, a.prunedReads())
			}
			topDown := 0
			for d := 0; d < l.Levels()-1; d++ {
				for _, u := range l.Level(d) {
					topDown += sub.Degree(u)
				}
			}
			if l.Reads() > topDown {
				if over == 0 {
					t.Errorf("n=%d q=%v: phase 1's layering read %d entries, top-down from its %d levels reads %d", n, q, l.Reads(), l.Levels()-1, topDown)
				}
				over++
			}
		}
		if over > 0 {
			t.Errorf("n=%d: %d sets' layerings read more than top-down", n, over)
		}
		t.Logf("n=%d: read %d of %d component entries (%.3f)", n, reads[i], entries, float64(reads[i])/float64(entries))
		if n == 5000 && 3*reads[i] > entries {
			t.Errorf("n=%d: pruned FPA read %d adjacency entries, above a third of the components' %d", n, reads[i], entries)
		}
	}
	if ratio := float64(reads[1]) / float64(reads[0]); ratio >= 8 {
		t.Errorf("pruned FPA's reads grew %.2fx from n=1000 to n=4000, want < 8", ratio)
	} else {
		t.Logf("reads grew %.2fx from n=1000 to n=4000", ratio)
	}
}
