// Package wu2015 reproduces the query-biased density baseline of Wu, Jin,
// Li & Zhang (PVLDB 2015), "Robust local community detection: on free
// rider effect and its elimination", referred to as wu2015 in the paper's
// evaluation.
//
// The method scores a subgraph S by its query-biased density: the number
// of internal edges divided by the sum of query-biased node weights, where
// a node's weight is the reciprocal of its random-walk-with-restart
// proximity to the query (decay factor c). Far-from-query nodes are heavy,
// so including them hurts; the greedy node-deletion algorithm repeatedly
// deletes the removable (non-articulation, non-query) node whose removal
// maximizes the score. The parameter η softens the proximity penalty when
// ranking candidates, matching the paper's η = 0.5 setting.
package wu2015

import (
	"math"
	"slices"

	"dmcs/internal/graph"
)

// Options configures the baseline. Zero values select the defaults used in
// the paper's evaluation (c = 0.8, η = 0.5, 50 RWR iterations).
type Options struct {
	Decay float64 // RWR restart-free continuation probability c
	Eta   float64 // proximity-penalty exponent η
	Iters int     // RWR power iterations
}

func (o Options) withDefaults() Options {
	if o.Decay == 0 {
		o.Decay = 0.8
	}
	if o.Eta == 0 {
		o.Eta = 0.5
	}
	if o.Iters == 0 {
		o.Iters = 50
	}
	return o
}

// Proximity computes random-walk-with-restart proximity scores from the
// query nodes: r = (1−c)·e_Q + c·Pᵀr with column-normalized transition P.
// Scores sum to 1 over reachable nodes.
func Proximity(g *graph.Graph, q []graph.Node, opt Options) []float64 {
	opt = opt.withDefaults()
	n := g.NumNodes()
	r := make([]float64, n)
	next := make([]float64, n)
	restart := make([]float64, n)
	if len(q) == 0 {
		return r
	}
	for _, u := range q {
		restart[u] = 1 / float64(len(q))
		r[u] = restart[u]
	}
	for it := 0; it < opt.Iters; it++ {
		for i := range next {
			next[i] = (1 - opt.Decay) * restart[i]
		}
		for u := 0; u < n; u++ {
			if r[u] == 0 {
				continue
			}
			d := g.Degree(graph.Node(u))
			if d == 0 {
				next[u] += opt.Decay * r[u] // dangling mass stays put
				continue
			}
			share := opt.Decay * r[u] / float64(d)
			for _, w := range g.Neighbors(graph.Node(u)) {
				next[w] += share
			}
		}
		r, next = next, r
	}
	return r
}

// QueryBiasedDensityCSR scores the alive set of the view: internal edges
// divided by the total query-biased node weight Σ 1/r(v). Unreachable
// nodes (r = 0) make the score 0, reflecting that they should never be in
// the community.
func QueryBiasedDensityCSR(v *graph.CSRView, prox []float64) float64 {
	var wsum float64
	for u := 0; u < v.NumNodes(); u++ {
		if !v.Alive(graph.Node(u)) {
			continue
		}
		p := prox[u]
		if p <= 0 {
			return 0
		}
		wsum += 1 / p
	}
	if wsum == 0 {
		return 0
	}
	return float64(v.NumAliveEdges()) / wsum
}

// Search runs the greedy node-deletion algorithm: starting from the
// connected component of the query, repeatedly delete the non-articulation
// non-query node with the smallest proximity-weighted retention score
// r(v)^η · k(v,S), and return the intermediate subgraph with the largest
// query-biased density. Returns nil when the query nodes are disconnected.
// The peeling loop — articulation recomputation plus candidate scans every
// iteration — runs on the packed CSR substrate like the dmcs searches.
func Search(g *graph.Graph, q []graph.Node, opt Options) []graph.Node {
	if len(q) == 0 {
		return nil
	}
	opt = opt.withDefaults()
	c := graph.NewCSR(g)
	// restrict to the component containing the query; the same distance
	// array validates that the whole query is inside it
	comp, dist := c.Component(q[0])
	for _, u := range q[1:] {
		if dist[u] == graph.INF {
			return nil
		}
	}
	prox := Proximity(g, q, opt)
	v := graph.NewCSRViewOf(c, comp)
	isQuery := make(map[graph.Node]bool, len(q))
	for _, u := range q {
		isQuery[u] = true
	}
	best := append([]graph.Node(nil), comp...)
	bestScore := QueryBiasedDensityCSR(v, prox)
	for v.NumAlive() > len(q) {
		art := v.ArticulationPoints()
		var pick graph.Node = -1
		pickScore := math.Inf(1)
		for _, u := range comp {
			if !v.Alive(u) || art[u] || isQuery[u] {
				continue
			}
			// retention score: high proximity and high internal degree
			// argue for keeping the node
			s := math.Pow(prox[u], opt.Eta) * float64(v.DegreeIn(u))
			if s < pickScore || (s == pickScore && u < pick) {
				pickScore, pick = s, u
			}
		}
		if pick < 0 {
			break
		}
		v.Remove(pick)
		if s := QueryBiasedDensityCSR(v, prox); s > bestScore {
			bestScore = s
			best = v.LiveNodes()
		}
	}
	slices.Sort(best)
	return best
}
