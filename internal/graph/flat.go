package graph

// flatCSR is the contiguous packed form every kernel of the peel reads:
// all adjacency lists in one targets slice with per-node offsets, the
// parallel weights, and the cached node weights. A SubCSR embeds one —
// extracted from a snapshot's pages, or lent by a snapshot that was born
// contiguous — so levelBFS, CSRView, the Θ-heap and NCA's certificates
// index flat arrays with no page lookup.
type flatCSR struct {
	offsets []int32
	targets []Node
	weights []float64 // parallel to targets; nil for unweighted graphs
	wdeg    []float64 // cached WeightedDegree per node (plain degree when unweighted)
	totalW  float64   // the w_G scores normalize by (see SubCSR)
}

// NumNodes returns |V|.
func (c *flatCSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (c *flatCSR) NumEdges() int { return len(c.targets) / 2 }

// Degree returns the degree of u.
func (c *flatCSR) Degree(u Node) int { return int(c.offsets[u+1] - c.offsets[u]) }

// Neighbors returns u's packed, sorted adjacency slice (do not modify).
func (c *flatCSR) Neighbors(u Node) []Node { return c.targets[c.offsets[u]:c.offsets[u+1]] }

// Weighted reports whether the arrays carry per-edge weights.
func (c *flatCSR) Weighted() bool { return c.weights != nil }

// NeighborWeights returns the weights parallel to Neighbors(u); nil when
// unweighted (every edge weighs 1).
func (c *flatCSR) NeighborWeights(u Node) []float64 {
	if c.weights == nil {
		return nil
	}
	return c.weights[c.offsets[u]:c.offsets[u+1]]
}

// WeightedDegree returns the cached node weight d_u.
func (c *flatCSR) WeightedDegree(u Node) float64 { return c.wdeg[u] }

// WeightedDegrees returns the cached node-weight table, indexed by node
// id and shared by every query on the sub (do not modify).
func (c *flatCSR) WeightedDegrees() []float64 { return c.wdeg }

// TotalWeight returns the total edge weight w_G scores normalize by.
func (c *flatCSR) TotalWeight() float64 { return c.totalW }

// MultiSourceBFSInto computes, for every node, the minimum unweighted
// distance to any of the sources (INF when unreachable) into caller-owned
// scratch: dist must have length >= NumNodes and queue capacity >=
// NumNodes (each node is enqueued at most once, so the queue never
// reallocates). Arenas use it to make per-query traversal allocation-free.
func (c *flatCSR) MultiSourceBFSInto(sources []Node, dist []int32, queue []Node) []int32 {
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
func (c *flatCSR) levelBFS(sources []Node, dist []int32, queue []Node, unvisited, unvisitedEntries int) (bottomUp int) {
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
