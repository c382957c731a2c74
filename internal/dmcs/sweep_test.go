package dmcs

import (
	"math"
	"math/rand"
	"testing"

	"dmcs/internal/graph"
)

// removeBasedPhase1 is layer pruning's phase 1 as it ran before the
// read-only sweep, kept as the sweep's reference: an all-alive view of
// sub, Remove for every node of each layer in ascending id, outermost
// layer first, the view's aggregates scored after each. It returns the
// statistics of every prefix (stats[j]: distance <= j) and the best one's
// bound.
func removeBasedPhase1(a *Arena, sub *graph.SubCSR, maxD int, opts Options) (stats []prefixStats, bestJ int) {
	v := a.g.ViewAll(0, sub)
	read := func() prefixStats {
		return prefixStats{wC: v.InternalWeight(), dS: v.NodeWeightSum(), size: v.NumAlive()}
	}
	wG := sub.TotalWeight()
	stats = make([]prefixStats, maxD+1)
	stats[maxD] = read()
	bestJ, bestScore := maxD, scoreStats(stats[maxD], wG, opts)
	for d := maxD; d >= 1; d-- {
		for _, u := range a.layer(d) {
			v.Remove(u)
		}
		stats[d-1] = read()
		if sc := scoreStats(stats[d-1], wG, opts); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}
	return stats, bestJ
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

// TestPrefixSweepMatchesRemoval is the read-only sweep's proof
// obligation. On random weighted and unweighted graphs — as a whole
// snapshot and as one component of a larger one — with one to three query
// nodes (several make steinerProtect put whole paths at distance 0), for
// every prefix j the sweep's (w_C, d_S, size) must equal, Float64bits for
// the floats, what the view holds after Remove has taken layers
// maxD..j+1 apart node by node; and the prefix bestPrefix picks must be
// the one the removal-based loop picks, under every objective. (The
// differential tests check the whole pruned search against the
// reference peel.)
func TestPrefixSweepMatchesRemoval(t *testing.T) {
	objectives := []Options{
		{LayerPruning: true},
		{LayerPruning: true, Objective: ClassicModularity},
		{LayerPruning: true, Objective: GeneralizedModularityDensity, Chi: 1.5},
	}
	for _, weighted := range []bool{false, true} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(700 + seed))
			n := 40 + rng.Intn(160)
			g := diffRandomGraph(rng, n, []float64{0.01, 0.03, 0.08}[seed%3], weighted)
			if seed%2 == 1 {
				g = withIslands(g)
			}
			csr := graph.NewCSR(g)
			comp, _ := csr.Component(0)
			sub := graph.WrapCSR(csr)
			if len(comp) < csr.NumNodes() {
				sub = graph.NewSubCSR(csr, comp)
			}
			k := sub.NumNodes()
			for qs := 1; qs <= 3; qs++ {
				var q, lq []graph.Node
				for _, l := range rng.Perm(k)[:qs] {
					lq = append(lq, graph.Node(l))
					q = append(q, sub.GlobalOf(graph.Node(l)))
				}
				a := NewArena()
				dist, cross := layerInto(a, sub, steinerProtect(a, sub, lq))
				maxD := groupLayersInto(a, k, dist)
				want, _ := removeBasedPhase1(a, sub, maxD, objectives[0])

				st := prefixStats{wC: sub.InternalWeight(), dS: sub.MemberWeightSum(), size: k}
				for d := maxD; ; d-- {
					if math.Float64bits(st.wC) != math.Float64bits(want[d].wC) ||
						math.Float64bits(st.dS) != math.Float64bits(want[d].dS) || st.size != want[d].size {
						t.Fatalf("weighted=%v seed=%d q=%v prefix %d of %d: sweep (w_C %v, d_S %v, size %d), removal (w_C %v, d_S %v, size %d)",
							weighted, seed, q, d, maxD, st.wC, st.dS, st.size, want[d].wC, want[d].dS, want[d].size)
					}
					if d == 0 {
						break
					}
					st = dropLayer(sub, dist, cross, a.layer(d), int32(d), st)
				}

				for _, opts := range objectives {
					_, wantJ := removeBasedPhase1(a, sub, maxD, opts)
					var poll deadlinePoller
					gotJ, dropped, timedOut := bestPrefix(a, sub, dist, cross, maxD, opts, &poll)
					if gotJ != wantJ || dropped != k-len(a.layer(0)) || timedOut {
						t.Fatalf("weighted=%v seed=%d q=%v objective=%d: bestPrefix = (%d, %d, %v), removal-based loop picks %d of %d layers, drops %d nodes",
							weighted, seed, q, opts.Objective, gotJ, dropped, timedOut, wantJ, maxD, k-len(a.layer(0)))
					}
				}
			}
		}
	}
}
