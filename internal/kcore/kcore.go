// Package kcore implements k-core decomposition and the two core-based
// community-search baselines of the paper: kc (the connected k-core
// containing the query nodes, Sozio & Gionis 2010) and highcore (the
// connected k-core with the largest feasible k).
package kcore

import (
	"dmcs/internal/graph"
)

// Decompose computes the core number of every node with the classic
// O(|V|+|E|) bucket-peeling algorithm (Batagelj–Zaveršnik).
func Decompose(g *graph.Graph) []int32 {
	n := g.NumNodes()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for u := 0; u < n; u++ {
		deg[u] = int32(g.Degree(graph.Node(u)))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// bucket sort nodes by degree
	bin := make([]int32, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	pos := make([]int32, n)
	vert := make([]graph.Node, n)
	for u := 0; u < n; u++ {
		pos[u] = bin[deg[u]]
		vert[pos[u]] = graph.Node(u)
		bin[deg[u]]++
	}
	for d := maxDeg; d >= 1; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int32, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		u := vert[i]
		for _, w := range g.Neighbors(u) {
			if core[w] > core[u] {
				// move w one bucket down
				dw := core[w]
				pw := pos[w]
				ps := bin[dw]
				s := vert[ps]
				if s != w {
					vert[ps], vert[pw] = w, s
					pos[w], pos[s] = ps, pw
				}
				bin[dw]++
				core[w]--
			}
		}
	}
	return core
}

// MaxCore returns the largest core number in g (0 for edgeless graphs).
func MaxCore(g *graph.Graph) int {
	core := Decompose(g)
	m := int32(0)
	for _, c := range core {
		if c > m {
			m = c
		}
	}
	return int(m)
}

// Community returns the kc baseline: the connected component of the k-core
// of g that contains all query nodes, or nil when no such component exists
// (a query node has core number < k, or the query nodes fall into
// different components of the k-core).
func Community(g *graph.Graph, q []graph.Node, k int) []graph.Node {
	if len(q) == 0 {
		return nil
	}
	return community(g, Decompose(g), q, k)
}

// community is Community given g's core numbers: the nodes of core number
// ≥ k that an alive-restricted BFS from q[0] reaches, provided it reaches
// the rest of q too.
func community(g *graph.Graph, core []int32, q []graph.Node, k int) []graph.Node {
	for _, u := range q {
		if int(core[u]) < k {
			return nil
		}
	}
	var keep []graph.Node
	for u := range core {
		if int(core[u]) >= k {
			keep = append(keep, graph.Node(u))
		}
	}
	dist := graph.NewCSRViewOf(graph.NewCSR(g), keep).MultiSourceBFS(q[:1])
	for _, u := range q[1:] {
		if dist[u] == graph.INF {
			return nil
		}
	}
	comp := keep[:0]
	for _, u := range keep {
		if dist[u] != graph.INF {
			comp = append(comp, u)
		}
	}
	return comp
}

// HighestCore returns the highcore baseline: the connected k-core
// containing all the query nodes for the maximum feasible k, plus that k.
// Returns (nil, 0) when the query nodes are not even in one component.
func HighestCore(g *graph.Graph, q []graph.Node) ([]graph.Node, int) {
	if len(q) == 0 {
		return nil, 0
	}
	core := Decompose(g)
	// k can be at most the minimum core number over the query nodes
	kmax := int(core[q[0]])
	for _, u := range q[1:] {
		if int(core[u]) < kmax {
			kmax = int(core[u])
		}
	}
	for k := kmax; k >= 0; k-- {
		if c := community(g, core, q, k); c != nil {
			return c, k
		}
	}
	return nil, 0
}
