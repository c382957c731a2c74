package graph

import "container/heap"

// CSR is a compressed-sparse-row snapshot of a graph: all adjacency lists
// packed into one contiguous slice with per-node offsets. It is the one
// storage layout of this repository — a Builder packs straight into it,
// Graph is a labelled view over it, and traversals (BFS, Dijkstra),
// modularity evaluation, and the peeling searches all run on the packed
// arrays; mutation during peeling is handled by CSRView, a mutable
// alive-set overlay. A snapshot is immutable once built: Graph, the
// engine and every query share the same arrays.
//
// The snapshot also caches the aggregates the modularity formulas need on
// every query — per-node weighted degrees (the d_v node weights of
// Definition 2) and the total edge weight w_G — accumulated in the order
// Builder.Build documents.
type CSR struct {
	offsets []int32
	targets []Node
	weights []float64 // parallel to targets; nil for unweighted graphs
	wdeg    []float64 // cached WeightedDegree per node (plain degree when unweighted)
	totalW  float64   // cached TotalWeight (|E| when unweighted)
}

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (c *CSR) NumEdges() int { return len(c.targets) / 2 }

// Degree returns the degree of u.
func (c *CSR) Degree(u Node) int { return int(c.offsets[u+1] - c.offsets[u]) }

// Neighbors returns u's packed, sorted adjacency slice (do not modify).
func (c *CSR) Neighbors(u Node) []Node {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}

// Weighted reports whether the snapshot carries per-edge weights.
func (c *CSR) Weighted() bool { return c.weights != nil }

// NeighborWeights returns the edge weights parallel to Neighbors(u), or nil
// when the graph is unweighted (every edge weighs 1). Do not modify.
func (c *CSR) NeighborWeights(u Node) []float64 {
	if c.weights == nil {
		return nil
	}
	return c.weights[c.offsets[u]:c.offsets[u+1]]
}

// WeightedDegree returns the cached node weight d_u (the sum of adjacent
// edge weights; the plain degree when unweighted).
func (c *CSR) WeightedDegree(u Node) float64 { return c.wdeg[u] }

// WeightedDegrees returns the full cached node-weight table, indexed by
// node id. The caller must not modify it; it is shared by every query that
// runs against the snapshot.
func (c *CSR) WeightedDegrees() []float64 { return c.wdeg }

// TotalWeight returns the cached total edge weight w_G (|E| unweighted).
func (c *CSR) TotalWeight() float64 { return c.totalW }

// Volume returns the sum of cached node weights over set — the d_C volume
// aggregate of the modularity definitions (vol(C) = Σ_{u∈C} d_u).
func (c *CSR) Volume(set []Node) float64 {
	var t float64
	for _, u := range set {
		t += c.wdeg[u]
	}
	return t
}

// Edges calls fn once per undirected edge with u < v, passing the edge
// weight (1 for unweighted snapshots). Iteration follows the packed
// adjacency — ascending u, ascending v — and stops early if fn returns
// false. Consumers that need a deterministic weighted edge sweep use this
// instead of Graph.Edges + EdgeWeight map lookups.
func (c *CSR) Edges(fn func(u, v Node, w float64) bool) {
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		adj := c.Neighbors(Node(u))
		if c.weights != nil {
			ws := c.NeighborWeights(Node(u))
			for i, v := range adj {
				if Node(u) < v {
					if !fn(Node(u), v, ws[i]) {
						return
					}
				}
			}
		} else {
			for _, v := range adj {
				if Node(u) < v {
					if !fn(Node(u), v, 1) {
						return
					}
				}
			}
		}
	}
}

// BFS computes unweighted distances from src over the CSR snapshot.
func (c *CSR) BFS(src Node) []int32 {
	return c.MultiSourceBFS([]Node{src})
}

// MultiSourceBFS computes, for every node, the minimum unweighted distance
// to any of the sources (the paper's dist(v) = min over q in Q of d(q,v)).
// Unreachable nodes get INF.
func (c *CSR) MultiSourceBFS(sources []Node) []int32 {
	n := c.NumNodes()
	return c.MultiSourceBFSInto(sources, make([]int32, n), make([]Node, 0, n))
}

// MultiSourceBFSInto is MultiSourceBFS writing into caller-owned scratch:
// dist must have length >= NumNodes and queue capacity >= NumNodes (each
// node is enqueued at most once, so the queue never reallocates). Arenas
// use it to make per-query traversal allocation-free.
func (c *CSR) MultiSourceBFSInto(sources []Node, dist []int32, queue []Node) []int32 {
	dist = dist[:c.NumNodes()]
	for i := range dist {
		dist[i] = INF
	}
	c.levelBFS(sources, dist, queue, len(dist), len(c.targets))
	return dist
}

// bfsBottomUpFactor fixes when a BFS level is expanded bottom-up: when
// the frontier's adjacency entries, times this factor, exceed what a
// bottom-up step reads at worst (see levelBFS).
const bfsBottomUpFactor = 4

// levelBFS is the one BFS kernel of the package: a level-synchronous,
// direction-optimizing multi-source BFS (Beamer et al.) over the packed
// adjacency. On entry dist[u] == INF marks the nodes it may reach and any
// other value excludes u for good (CSRView folds its dead nodes in that
// way, so the inner loops pay one random read per entry); unvisited
// counts the INF nodes and unvisitedEntries their adjacency entries.
// Sources that are not INF — excluded or repeated — are skipped. It
// writes every reached node's level into dist and returns how many
// levels it expanded bottom-up.
//
// A level is expanded top-down (every frontier node claims its INF
// neighbours: one read per frontier entry) while the frontier is light,
// and bottom-up (every INF node scans its own entries for a neighbour on
// the previous level and stops at the first) when
//
//	bfsBottomUpFactor * frontierEntries > unvisitedEntries + n,
//
// the right-hand side being everything a bottom-up step can read: one
// pass over the node ids plus every unvisited entry. Layering a query's
// component is the case it is for: degree-skewed graphs put most nodes
// two or three hops out, the frontier's entries then outnumber the
// unvisited ones, and almost every unvisited node finds a parent among
// its first few entries. The BFS stops once no INF node is left, so the
// last layers are never expanded at all. Levels are unique, so dist does
// not depend on the directions taken.
//
// Cost on any input stays O(n + entries). A bottom-up step reads fewer
// than bfsBottomUpFactor times its frontier's entries, and every entry is
// a frontier entry once. Two bottom-up steps in a row shrink the
// unvisited entries geometrically: the second needs factor*f' > m', where
// f' are the entries the first one reached and m' those it left, and it
// started from m = m' + f' > m'*(1 + 1/factor). A run of bottom-up steps
// is therefore at most log_{1+1/factor}(entries) long; and since every one
// of them needs factor*f > n, there are at most factor*entries/n in total.
func (c *CSR) levelBFS(sources []Node, dist []int32, queue []Node, unvisited, unvisitedEntries int) (bottomUp int) {
	offsets, targets := c.offsets, c.targets
	queue = queue[:0]
	for _, s := range sources {
		if dist[s] == INF {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	unvisited -= len(queue)
	head := 0
	for d := int32(1); head < len(queue) && unvisited > 0; d++ {
		frontier := queue[head:]
		head = len(queue)
		// Summing the frontier's degrees here, not as nodes are reached,
		// keeps the expansion loops free of it and loads the very offsets
		// the top-down loop reads next.
		entries := 0
		for _, u := range frontier {
			entries += int(offsets[u+1] - offsets[u])
		}
		unvisitedEntries -= entries
		if bfsBottomUpFactor*entries > unvisitedEntries+len(dist) {
			bottomUp++
			for u := range dist {
				if dist[u] != INF {
					continue
				}
				for _, w := range targets[offsets[u]:offsets[u+1]] {
					if dist[w] == d-1 {
						dist[u] = d
						queue = append(queue, Node(u))
						break
					}
				}
			}
		} else {
			for _, u := range frontier {
				for _, w := range targets[offsets[u]:offsets[u+1]] {
					if dist[w] == INF {
						dist[w] = d
						queue = append(queue, w)
					}
				}
			}
		}
		unvisited -= len(queue) - head
	}
	return bottomUp
}

// Component returns the sorted connected component containing src
// together with the BFS distance array that enumerated it (INF marks
// nodes outside the component, so callers validate membership of further
// nodes — e.g. the rest of a query — without a second traversal).
func (c *CSR) Component(src Node) ([]Node, []int32) {
	dist := c.BFS(src)
	comp := make([]Node, 0, 64)
	for u, d := range dist {
		if d != INF {
			comp = append(comp, Node(u))
		}
	}
	return comp, dist
}

// Components floods the whole snapshot once and returns its
// connected-component partition in canonical form: compID maps every node
// to a component id assigned in first-seen ascending-node order, and
// comps[id] is that component's member list, sorted ascending. It is the
// from-scratch form of what UpdateComponents maintains incrementally, and
// the only whole-graph flood in the package.
func (c *CSR) Components() (compID []int32, comps [][]Node) {
	n := c.NumNodes()
	compID = make([]int32, n)
	for i := range compID {
		compID[i] = -1
	}
	var sizes []int32
	var queue []Node
	for root := 0; root < n; root++ {
		if compID[root] != -1 {
			continue
		}
		id := int32(len(sizes))
		compID[root] = id
		queue = append(queue[:0], Node(root))
		for head := 0; head < len(queue); head++ {
			for _, w := range c.Neighbors(queue[head]) {
				if compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, int32(len(queue)))
	}
	return compID, memberLists(compID, sizes)
}

// Dijkstra computes weighted shortest-path distances from the sources
// over the packed weights (unit weights when the snapshot is unweighted,
// degenerating to BFS distances). Unreachable nodes get -1.
func (c *CSR) Dijkstra(sources []Node) []float64 {
	dist := make([]float64, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	h := &dijkstraHeap{}
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			heap.Push(h, dijkstraItem{s, 0})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(dijkstraItem)
		if it.dist > dist[it.node] {
			continue
		}
		adj := c.Neighbors(it.node)
		ws := c.NeighborWeights(it.node)
		for i, w := range adj {
			step := 1.0
			if ws != nil {
				step = ws[i]
			}
			nd := it.dist + step
			if dist[w] < 0 || nd < dist[w] {
				dist[w] = nd
				heap.Push(h, dijkstraItem{w, nd})
			}
		}
	}
	return dist
}

// Triangles counts the triangles incident to every node using the packed
// lists (merge-intersection over sorted adjacencies).
func (c *CSR) Triangles() []int32 {
	n := c.NumNodes()
	tri := make([]int32, n)
	for u := 0; u < n; u++ {
		nu := c.Neighbors(Node(u))
		for _, v := range nu {
			if v <= Node(u) {
				continue
			}
			nv := c.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] == nv[j]:
					if nu[i] > v { // count each triangle once at its apex
						tri[u]++
						tri[v]++
						tri[nu[i]]++
					}
					i++
					j++
				case nu[i] < nv[j]:
					i++
				default:
					j++
				}
			}
		}
	}
	return tri
}

// LocalClustering returns each node's local clustering coefficient
// 2·tri(u) / (deg(u)·(deg(u)−1)), 0 for degree < 2. The paper uses the
// average difference of local clustering coefficients between ground-truth
// communities to explain NCA's behaviour on Dolphin/Polblogs (§6.3).
func (c *CSR) LocalClustering() []float64 {
	tri := c.Triangles()
	out := make([]float64, c.NumNodes())
	for u := range out {
		d := c.Degree(Node(u))
		if d >= 2 {
			out[u] = 2 * float64(tri[u]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// AvgClustering returns the mean local clustering coefficient over the
// given node set (over all nodes when set is nil).
func (c *CSR) AvgClustering(set []Node) float64 {
	cc := c.LocalClustering()
	if set == nil {
		var t float64
		for _, x := range cc {
			t += x
		}
		if len(cc) == 0 {
			return 0
		}
		return t / float64(len(cc))
	}
	if len(set) == 0 {
		return 0
	}
	var t float64
	for _, u := range set {
		t += cc[u]
	}
	return t / float64(len(set))
}
