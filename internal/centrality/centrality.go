// Package centrality implements the node centralities of the paper's
// Section 6.3.2 case study: betweenness centrality (Brandes 2001) and
// eigenvector centrality by power iteration (Zaki & Meira 2014). The edge
// betweenness that drives the Girvan–Newman baseline lives with it, in
// internal/detect.
package centrality

import (
	"math"

	"dmcs/internal/graph"
)

// Betweenness computes exact node betweenness centrality for every node
// with Brandes' algorithm in O(|V||E|).
func Betweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	cb := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]graph.Node, n)
	stack := make([]graph.Node, 0, n)
	queue := make([]graph.Node, 0, n)

	for s := 0; s < n; s++ {
		stack = stack[:0]
		queue = queue[:0]
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		src := graph.Node(s)
		dist[src] = 0
		sigma[src] = 1
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			stack = append(stack, v)
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				cb[w] += delta[w]
			}
		}
	}
	// undirected graphs double-count each pair
	for i := range cb {
		cb[i] /= 2
	}
	return cb
}

// Eigenvector computes eigenvector centrality by power iteration,
// normalized to unit Euclidean norm. The iteration uses the shifted matrix
// A+I, which has the same leading eigenvector as A but converges on
// bipartite graphs (where plain power iteration oscillates between the ±λ
// eigenvectors). It runs at most maxIter iterations or until the L1 change
// drops below tol.
func Eigenvector(g *graph.Graph, maxIter int, tol float64) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if g.NumEdges() == 0 {
		return make([]float64, n) // degenerate: no meaningful centrality
	}
	x := make([]float64, n)
	next := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < maxIter; it++ {
		for i := range next {
			next[i] = x[i] // the +I shift
		}
		for u := 0; u < n; u++ {
			for _, w := range g.Neighbors(graph.Node(u)) {
				next[u] += x[w]
			}
		}
		var norm float64
		for _, v := range next {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return next // edgeless graph
		}
		var diff float64
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < tol {
			break
		}
	}
	return x
}

// Rank returns the 1-based rank of node u under the given scores (rank 1 =
// highest score; ties share the better rank).
func Rank(scores []float64, u graph.Node) int {
	r := 1
	for _, s := range scores {
		if s > scores[u] {
			r++
		}
	}
	return r
}
