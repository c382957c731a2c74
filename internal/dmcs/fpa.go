package dmcs

import (
	"math"
	"time"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// steinerProtect returns the protected node set of Section 5.6 in local
// ids, sorted ascending: the query nodes plus, when there are several,
// the nodes on shortest paths from a root query node to every other query
// node. Protected nodes get distance 0 and are never removed, which
// guarantees that removing any farthest node keeps the subgraph
// connected. All scratch (BFS parents, queue, membership flags) is
// arena-backed and component-sized.
func steinerProtect(a *Arena, sub *graph.SubCSR, q []graph.Node) []graph.Node {
	a.protected = append(a.protected[:0], q...)
	if len(q) <= 1 {
		return a.protected
	}
	k := sub.NumNodes()
	// BFS parents from the root query node
	parent := a.g.Nodes(0, k)
	for i := range parent {
		parent[i] = -1
	}
	root := q[0]
	parent[root] = root
	queue := append(a.g.Queue(k), root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range sub.Neighbors(u) {
			if parent[w] < 0 {
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	inSet := a.g.Marks(0, k)
	inSet[root] = true
	for _, t := range q[1:] {
		for u := t; !inSet[u]; u = parent[u] {
			if parent[u] < 0 {
				break // unreachable; caller validates connectivity
			}
			inSet[u] = true
		}
	}
	out := a.protected[:0]
	for u := 0; u < k; u++ {
		if inSet[u] {
			out = append(out, graph.Node(u))
		}
	}
	a.protected = out
	return out
}

// thetaItem is a candidate in the Θ max-heap. k caches the candidate's
// (weighted) subgraph degree at push time; entries whose k is stale are
// skipped.
type thetaItem struct {
	node  graph.Node
	theta float64
	k     float64
}

// runFPA implements Algorithm 2 and its FPA-DMG sibling over the compact
// sub-CSR. useTheta selects the density-ratio pick (stable, heap-driven);
// otherwise the density modularity gain Λ is rescanned over the remaining
// layer candidates each iteration (unstable, the 150× slowdown of Section
// 6.2.5). q is in local ids; comp is the sorted source-id component (see
// SearchSub), used only to reconstruct the result.
func runFPA(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, useTheta bool) (*Result, error) {
	protected := steinerProtect(a, sub, q)
	if opts.LayerPruning {
		return fpaWithPruning(a, sub, protected, comp, opts, useTheta)
	}
	k := sub.NumNodes()
	dist := bfsInto(a, sub, protected)
	s := newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	maxD := groupLayersInto(a, k, dist)
	for d := maxD; d >= 1; d-- {
		if s.expired() {
			break
		}
		peelLayer(s, a.layer(d), useTheta)
	}
	return s.result(), nil
}

// bfsInto layers sub by distance from sources into the arena's slot-0
// distance buffer.
func bfsInto(a *Arena, sub *graph.SubCSR, sources []graph.Node) []int32 {
	k := sub.NumNodes()
	return sub.MultiSourceBFSInto(sources, a.g.Dist(0, k), a.g.Queue(k))
}

// groupLayersInto buckets the k local nodes by BFS distance into the
// arena's flat bucket structure (counts, prefix offsets, one fill pass —
// the CSR trick again) and returns the maximum distance. Within a layer
// nodes come out in ascending id order, exactly the order the historical
// append-per-node grouping produced. Unreachable nodes cannot occur
// because the sub spans a connected component containing the sources.
func groupLayersInto(a *Arena, k int, dist []int32) int {
	maxD := int32(0)
	for u := 0; u < k; u++ {
		if dist[u] > maxD {
			maxD = dist[u]
		}
	}
	off := growInt32Slice(a.layerOff, int(maxD)+2)
	for i := range off {
		off[i] = 0
	}
	for u := 0; u < k; u++ {
		off[dist[u]+1]++
	}
	for d := 1; d < len(off); d++ {
		off[d] += off[d-1]
	}
	nodes := growNodeSlice(a.layerNodes, k)
	fill := growInt32Slice(a.layerFill, int(maxD)+1) // per-layer cursors
	for i := range fill {
		fill[i] = 0
	}
	for u := 0; u < k; u++ {
		d := dist[u]
		nodes[off[d]+fill[d]] = graph.Node(u)
		fill[d]++
	}
	// Hand every grown buffer back to the arena — layerFill included. A
	// buffer that is not handed back is reallocated per query, and that
	// steady garbage forces GC cycles whose victim-cache flushes empty
	// the arena pool itself, so some later query rebuilds full
	// component-sized scratch (TestWarmArenaAllocs holds the warm path
	// at its two Result allocations).
	a.layerOff, a.layerNodes, a.layerFill = off, nodes, fill
	return int(maxD)
}

// layer returns the d-distance bucket (ascending local ids).
func (a *Arena) layer(d int) []graph.Node {
	return a.layerNodes[a.layerOff[d]:a.layerOff[d+1]]
}

// peelLayer removes every node of one distance layer in goodness order.
func peelLayer(s *peelState, cand []graph.Node, useTheta bool) {
	if useTheta {
		peelLayerTheta(s, cand)
	} else {
		peelLayerLambda(s, cand)
	}
}

// peelLayerTheta removes the layer in density-ratio order using a lazy
// max-heap: when a removal changes a neighbor's Θ, a fresh entry is
// pushed and the stale one is skipped on pop (Lemma 5 makes these the
// only updates needed). Layer membership is a generation-tagged arena
// slice — the inLayer map of the historical implementation.
func peelLayerTheta(s *peelState, cand []graph.Node) {
	a := s.a
	k := s.sub.NumNodes()
	mark := growInt32Slice(a.layerInLayer, k)
	if a.layerGen == 0 { // first theta layer of this query: forget stale tags
		for i := range mark {
			mark[i] = 0
		}
	}
	a.layerInLayer = mark
	a.layerGen++
	gen := a.layerGen
	for _, u := range cand {
		mark[u] = gen
	}
	h := &a.pq
	h.items = h.items[:0]
	for _, u := range cand {
		h.items = append(h.items, thetaOf(s, u))
	}
	h.init()
	drainTheta(s, mark, gen)
}

// drainTheta pops the Θ heap to empty, removing live candidates and
// lazily re-scoring their still-queued neighbors.
//
//dmcs:hotpath
func drainTheta(s *peelState, mark []int32, gen int32) {
	h := &s.a.pq
	for len(h.items) > 0 {
		if s.expired() {
			break
		}
		it := h.pop()
		u := it.node
		if !s.v.Alive(u) || s.kOf(u) != it.k {
			continue // removed or stale entry
		}
		s.remove(u)
		mark[u] = 0
		for _, w := range s.sub.Neighbors(u) {
			if s.v.Alive(w) && mark[w] == gen {
				h.push(thetaOf(s, w))
			}
		}
	}
}

// peelLayerLambda removes the layer in Λ order; Λ depends on d_S, which
// every removal changes, so the whole candidate set is rescanned per
// iteration.
//
//dmcs:hotpath
func peelLayerLambda(s *peelState, cand []graph.Node) {
	remaining := append(s.a.remaining[:0], cand...)
	//dmcs:allow hotpath one defer closure per layer call, outside the per-removal loop; it returns the arena buffer on every exit path
	defer func() { s.a.remaining = remaining[:0] }()
	for len(remaining) > 0 {
		if s.expired() {
			return
		}
		bestI := -1
		bestScore := math.Inf(-1)
		dS := s.v.NodeWeightSum()
		for i, u := range remaining {
			sc := modularity.LambdaF(s.wG, dS, s.kOf(u), s.dOf(u))
			if sc > bestScore || (sc == bestScore && bestI >= 0 && u < remaining[bestI]) {
				bestScore, bestI = sc, i
			}
		}
		u := remaining[bestI]
		remaining[bestI] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		s.remove(u)
	}
}

// prefixStats are the sufficient statistics of a distance prefix — the
// subgraph induced by the nodes within some distance of the protected set:
// w_C, d_S and the node count, which is all any objective reads.
type prefixStats struct {
	wC, dS float64
	size   int
	// down counts the adjacency entries that lead from the layer dropped
	// last into the prefix; seen from the prefix's own outermost layer
	// they are its entries to the outside.
	down int
}

// dropLayer returns the statistics of the prefix left when layer — the
// nodes at distance d, ascending, the outermost layer of the prefix st
// describes — is removed. It only reads sub and dist; the values are,
// bit for bit, the ones an all-alive CSRView of sub holds after Remove(u)
// for every u of every layer so far, in slice order (the reference
// TestPrefixSweepMatchesRemoval keeps).
//
// d_S loses each node's weight in that same order. For w_C, Remove
// subtracts k_{u,S}: u's entries to nodes still alive, summed in
// packed-adjacency order. When u's turn comes every farther layer is gone
// and so are the nodes of its own layer with a smaller id, so the alive
// neighbours are those with dist < d, or dist == d and a larger id. On a
// weighted snapshot that term sequence is summed per node and subtracted
// per node, which keeps every rounding. On an unweighted snapshot each
// k_{u,S} is an integer and so is w_C, exact in any order, and the layer's
// loss is its edge count into the prefix that remains: the entries to the
// layer below, plus half the entries that stay inside the layer. A BFS
// layer's entries go one layer down, one layer up, or stay, and its up
// entries are the down entries of the layer dropped before it, so
//
//	lost = down + (entries - down - st.down)/2
//
// needs one comparison per entry and none between ids (a per-node
// `w > u` test mispredicts on every row).
func dropLayer(sub *graph.SubCSR, dist []int32, layer []graph.Node, d int32, st prefixStats) prefixStats {
	wdeg := sub.WeightedDegrees()
	if sub.Weighted() {
		for _, u := range layer {
			ws := sub.NeighborWeights(u)
			var k float64
			for i, w := range sub.Neighbors(u) {
				if dw := dist[w]; dw < d || (dw == d && w > u) {
					k += ws[i]
				}
			}
			st.wC -= k
			st.dS -= wdeg[u]
		}
		st.size -= len(layer)
		return st
	}
	down, entries := 0, 0
	for _, u := range layer {
		adj := sub.Neighbors(u)
		for _, w := range adj {
			down += int(uint32(dist[w]-d) >> 31) // 1 iff dist[w] < d
		}
		entries += len(adj)
		st.dS -= wdeg[u]
	}
	st.wC -= float64(down + (entries-down-st.down)/2)
	st.size -= len(layer)
	st.down = down
	return st
}

// fpaWithPruning implements the Section 5.7 layer-based pruning strategy:
// (1) iteratively drop whole outermost layers, scoring each prefix
// subgraph; (2) keep the best-scoring prefix and apply the node-removal
// process to its outermost layer only. Phase 1 removes nothing: it starts
// from the component's own aggregates and walks the layer buckets
// outermost-in, one read-only pass over the component's adjacency
// (dropLayer). Phase 2 peels on an arena-backed view of the chosen prefix.
func fpaWithPruning(a *Arena, sub *graph.SubCSR, protected, comp []graph.Node, opts Options, useTheta bool) (*Result, error) {
	k := sub.NumNodes()
	dist := bfsInto(a, sub, protected)
	maxD := groupLayersInto(a, k, dist)

	// Phase 1 honours Cancel and Timeout at layer granularity; the best
	// prefix scored so far is kept on expiry, and phase 2 runs on the
	// remaining time budget so the bound covers both phases.
	var poll deadlinePoller
	poll.cancel = opts.Cancel
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
		poll.deadline = deadline
	}
	bestJ, phase1, timedOut := bestPrefix(a, sub, dist, maxD, opts, &poll)

	// Phase 2: fresh peel over the selected prefix, removing only its
	// outermost layer. comp2 holds the prefix members in local ids.
	comp2 := a.comp2[:0]
	for u := 0; u < k; u++ {
		if int(dist[u]) <= bestJ {
			comp2 = append(comp2, graph.Node(u))
		}
	}
	a.comp2 = comp2
	opts2 := opts
	if !deadline.IsZero() {
		if remaining := time.Until(deadline); remaining > 0 {
			opts2.Timeout = remaining
		} else {
			timedOut = true
		}
	}
	s := newPeelState(a, sub, a.g.ViewOf(1, sub, comp2), comp, comp2, opts2)
	if bestJ >= 1 && !timedOut {
		peelLayer(s, a.layer(bestJ), useTheta)
	}
	r := s.result()
	r.Iterations += phase1
	if timedOut {
		r.TimedOut = true
	}
	return r, nil
}

// bestPrefix is phase 1: it scores the prefix left after dropping each
// outermost layer in turn and returns the distance bound of the best one
// (ties go to the smaller prefix, as in the peel), the number of nodes in
// the layers it dropped, and whether poll expired before the last layer.
func bestPrefix(a *Arena, sub *graph.SubCSR, dist []int32, maxD int, opts Options, poll *deadlinePoller) (bestJ, dropped int, timedOut bool) {
	wG := sub.TotalWeight()
	st := prefixStats{wC: sub.InternalWeight(), dS: sub.MemberWeightSum(), size: sub.NumNodes()}
	bestJ, bestScore := maxD, scoreStats(st, wG, opts)
	for d := maxD; d >= 1; d-- {
		if poll.check() {
			return bestJ, dropped, true
		}
		layer := a.layer(d)
		st = dropLayer(sub, dist, layer, int32(d), st)
		dropped += len(layer)
		if sc := scoreStats(st, wG, opts); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}
	return bestJ, dropped, false
}
