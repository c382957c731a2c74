package dmcs

import (
	"math"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// pickFunc scores a removable candidate; larger is better (removed first).
// kv is the candidate's (weighted) degree into the current subgraph, dv
// its node weight, dS the current node-weight sum, wG the total edge
// weight (|E| when unweighted). The references pick through it; the
// production scan calls modularity.LambdaF / ThetaF directly.
type pickFunc func(wG, dS, kv, dv float64) float64

// pickLambda is the density modularity gain Λ of Definition 6.
func pickLambda(wG, dS, kv, dv float64) float64 {
	return modularity.LambdaF(wG, dS, kv, dv)
}

// pickTheta is the density ratio Θ of Definition 7 (ignores wG and dS,
// which is exactly what makes it stable).
func pickTheta(_, _, kv, dv float64) float64 {
	return modularity.ThetaF(dv, kv)
}

// refPick is the reference pick of NCA-DR (theta) or NCA.
func refPick(theta bool) pickFunc {
	if theta {
		return pickTheta
	}
	return pickLambda
}

// refRunNCA is the textbook NCA loop the production peel replaced and must
// stay bit-identical to: a from-scratch Hopcroft–Tarjan pass over the
// alive view before every removal, the candidate argmax masked by exactly
// its articulation points, k_{v,S} rescanned per candidate, no spanning
// tree, no witnesses, no re-compaction.
func refRunNCA(sub *graph.SubCSR, q, comp []graph.Node, opts Options, pick pickFunc) *Result {
	a := NewArena()
	n := sub.NumNodes()
	dist := sub.MultiSourceBFSInto(q, make([]int32, n), make([]graph.Node, 0, n))
	s := newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	isQuery := make([]bool, n)
	for _, u := range q {
		isQuery[u] = true
	}
	for s.v.NumAlive() > len(q) {
		art := s.v.ArticulationPoints()
		var best graph.Node = -1
		bestScore := math.Inf(-1)
		for ui := 0; ui < n; ui++ {
			u := graph.Node(ui)
			if !s.v.Alive(u) || art[u] || isQuery[u] {
				continue
			}
			sc := pick(s.wG, s.v.NodeWeightSum(), s.kOf(u), s.dOf(u))
			switch {
			case sc > bestScore:
				bestScore, best = sc, u
			case sc == bestScore && best >= 0 && (dist[u] > dist[best] || (dist[u] == dist[best] && u < best)):
				best = u
			}
		}
		if best < 0 {
			break
		}
		s.remove(best)
	}
	return s.result()
}
