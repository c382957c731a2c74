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

// thetaItem is a candidate in the Θ max-heap: its Θ and the (weighted)
// subgraph degree k it was computed from, which breaks ties on Θ.
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

// peelLayerTheta removes the layer in density-ratio order through the
// arena's indexed Θ heap. The heap's position table is cleared by the
// first Θ layer of a query (SearchSub truncates it to mark a new query)
// and every drain leaves it all-zero again.
func peelLayerTheta(s *peelState, cand []graph.Node) {
	h := &s.a.pq
	if k := s.sub.NumNodes(); len(h.pos) != k {
		h.pos = growInt32Slice(h.pos, k)
		clear(h.pos)
	}
	h.items = h.items[:0]
	for _, u := range cand {
		h.items = append(h.items, thetaOf(s, u))
	}
	h.init()
	drainTheta(s)
}

// drainTheta pops the Θ heap to empty, removing each popped node and
// re-scoring, in place, its neighbours still queued (Lemma 5 makes these
// the only Θ values a removal changes), from the alive neighbours the
// removal hands back. On expiry it empties the heap.
//
//dmcs:hotpath
func drainTheta(s *peelState) {
	h := &s.a.pq
	for len(h.items) > 0 {
		if s.expired() {
			h.reset()
			return
		}
		for _, w := range s.removeInto(h.pop()) {
			if i := h.pos[w] - 1; i >= 0 {
				h.update(int(i), thetaOf(s, w))
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
}

// dropLayer returns the statistics of the prefix left when layer — the
// nodes at distance d, ascending, the outermost layer of the prefix st
// describes — is removed from a weighted sub. It only reads sub and dist;
// the values are, bit for bit, the ones an all-alive CSRView of sub holds
// after Remove(u) for every u of every layer so far, in slice order (the
// reference TestPrefixSweepMatchesRemoval keeps).
//
// d_S loses each node's weight in that same order. For w_C, Remove
// subtracts k_{u,S}: u's entries to nodes still alive, summed in
// packed-adjacency order. When u's turn comes every farther layer is gone
// and so are the nodes of its own layer with a smaller id, so the alive
// neighbours are those with dist < d, or dist == d and a larger id. That
// term sequence is summed per node and subtracted per node, which keeps
// every rounding.
func dropLayer(sub *graph.SubCSR, dist []int32, layer []graph.Node, d int32, st prefixStats) prefixStats {
	wdeg := sub.WeightedDegrees()
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

// fpaWithPruning implements the Section 5.7 layer-based pruning strategy:
// (1) score the distance prefixes of the component — the balls B_j of
// the nodes within distance j of the protected set — and keep the best
// one (ties go to the smaller prefix, as in the peel); (2) apply the
// node-removal process to the kept prefix's outermost layer only. Phase 1
// removes nothing.
//
// On an unweighted sub phase 1 is sweepBall: it layers the component one
// BFS level at a time, scores each ball inside out from exact integer
// statistics, and stops layering once a bound shows that no larger ball
// can score better, so it reads only the adjacency it needs. Phase 2 then
// peels on a view of the ball built from the layering, which reads only
// the outermost layer's rows. A weighted sub layers the whole component
// and sweeps outside in (bestPrefix): its prefixes' w_C must be summed in
// the order serial removal used to keep their Float64bits, and that order
// runs from the outermost layer in.
//
// Phase 1 honours Cancel and Timeout at layer granularity and keeps the
// best prefix scored so far on expiry: inside out, the best of the balls
// up to the last one scored. Phase 2 runs on the remaining time budget so
// the bound covers both phases. Phase 1 counts as removing every node
// outside B_0, expired or not, so Iterations is k - |B_0| plus phase 2's
// removals.
func fpaWithPruning(a *Arena, sub *graph.SubCSR, protected, comp []graph.Node, opts Options, useTheta bool) (*Result, error) {
	k := sub.NumNodes()
	var poll deadlinePoller
	poll.cancel = opts.Cancel
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
		poll.deadline = deadline
	}

	// comp2 holds the kept prefix's members in local ids, ascending; outer
	// is its outermost layer, the one phase 2 peels.
	var (
		j        int
		comp2    []graph.Node
		outer    []graph.Node
		v        *graph.CSRView
		timedOut bool
	)
	if sub.Weighted() {
		dist := bfsInto(a, sub, protected)
		maxD := groupLayersInto(a, k, dist)
		j, timedOut = bestPrefix(a, sub, dist, maxD, opts, &poll)
		comp2 = prefixMembers(a, dist, j)
		v, outer = a.g.ViewOf(1, sub, comp2), a.layer(j)
	} else {
		l := a.g.Layering(sub, protected)
		var b ballPrefix
		b, timedOut = sweepBall(l, sub, opts, &poll)
		j = b.j
		comp2 = prefixMembers(a, l.Dist(), j)
		ball := l.Reached()[:b.hi]
		v, outer = a.g.ViewOfBall(1, sub, l.Dist(), int32(j), ball, b.st.wC, b.st.dS), ball[b.lo:]
		a.pruneReads = l.Reads() + b.outerEntries
	}

	// Phase 2: fresh peel over the kept prefix, removing only its
	// outermost layer.
	opts2 := opts
	if !deadline.IsZero() {
		if remaining := time.Until(deadline); remaining > 0 {
			opts2.Timeout = remaining
		} else {
			timedOut = true
		}
	}
	s := newPeelState(a, sub, v, comp, comp2, opts2)
	if j >= 1 && !timedOut {
		peelLayer(s, outer, useTheta)
	}
	r := s.result()
	r.Iterations += k - len(protected)
	if timedOut {
		r.TimedOut = true
	}
	return r, nil
}

// prefixMembers lists the local ids within distance j, ascending, into
// the arena's phase-2 member buffer. It writes every id and advances past
// the members only: a branch on a ball that holds a good share of the
// component is mispredicted half the time.
func prefixMembers(a *Arena, dist []int32, j int) []graph.Node {
	comp2 := growNodeSlice(a.comp2, len(dist))
	n := 0
	for u, d := range dist {
		comp2[n] = graph.Node(u) // n <= u
		if int(d) <= j {
			n++ // a conditional move
		}
	}
	a.comp2 = comp2
	return comp2[:n]
}

// bestPrefix is a weighted sub's phase 1: it scores the prefix left after
// dropping each outermost layer in turn and returns the distance bound of
// the best one (ties go to the smaller prefix) and whether poll expired
// before the last layer.
func bestPrefix(a *Arena, sub *graph.SubCSR, dist []int32, maxD int, opts Options, poll *deadlinePoller) (bestJ int, timedOut bool) {
	wG := sub.TotalWeight()
	st := prefixStats{wC: sub.InternalWeight(), dS: sub.MemberWeightSum(), size: sub.NumNodes()}
	bestJ, bestScore := maxD, scoreStats(st, wG, opts)
	for d := maxD; d >= 1; d-- {
		if poll.check() {
			return bestJ, true
		}
		st = dropLayer(sub, dist, a.layer(d), int32(d), st)
		if sc := scoreStats(st, wG, opts); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}
	return bestJ, false
}

// ballPrefix is the ball unweighted pruning keeps: B_j, the first hi
// nodes its Layering reached, whose outermost level starts at lo and has
// outerEntries adjacency entries, with B_j's statistics.
type ballPrefix struct {
	j, lo, hi, outerEntries int
	st                      prefixStats
}

// pruneMargin is how far below the best score, relative to it, a
// pruneBound must fall before sweepBall stops: far above the few ulps by
// which either side can be off, so no stop is decided by rounding.
const pruneMargin = 1e-9

// sweepBall is an unweighted sub's phase 1. Each Step yields level d,
// which completes B_{d-1}, and B_{d-1}'s statistics are exact integers:
// its size, its summed node weights d_S, and w_C = (entries - cross)/2,
// its nodes' adjacency entries less the cross[d] that lead to level d,
// halved. Each ball is scored with scoreStats and the first maximum kept
// (a strict >, so ties go to the smaller ball). Once level d is known,
// pruneBound bounds the score of every ball B_{d'}, d' >= d, and the
// sweep stops layering when that bound is below the best score by
// pruneMargin. It polls after every ball and keeps the best one so far on
// expiry.
//
//dmcs:hotpath
func sweepBall(l *graph.Layering, sub *graph.SubCSR, opts Options, poll *deadlinePoller) (best ballPrefix, timedOut bool) {
	wdeg, wG, dC := sub.WeightedDegrees(), sub.TotalWeight(), sub.MemberWeightSum()
	level := l.Reached() // level 0: the protected set
	st := prefixStats{size: len(level)}
	for _, u := range level {
		st.dS += wdeg[u]
	}
	lo, hi, entries := 0, len(level), 0
	best.j = -1
	var bestScore float64
	for d := 1; ; d++ {
		var e, cross int
		level, e, cross = l.Step()
		entries += e
		st.wC = float64((entries - cross) / 2)
		if sc := scoreStats(st, wG, opts); best.j < 0 || sc > bestScore {
			bestScore = sc
			best = ballPrefix{j: d - 1, lo: lo, hi: hi, outerEntries: e, st: st}
		}
		if len(level) == 0 {
			return best, false
		}
		lo, hi = hi, hi+len(level)
		st.size = hi
		for _, u := range level {
			st.dS += wdeg[u]
		}
		if pruneBound(st, dC, wG, opts) < bestScore-pruneMargin*math.Abs(bestScore) {
			return best, false
		}
		if poll.check() {
			return best, true
		}
	}
}

// pruneBound bounds the score of every distance prefix that contains the
// ball st describes, in an unweighted component whose node weights sum to
// dC. Such a prefix has at least st.size nodes, a volume V (its d_S)
// between st.dS and dC, and w_C <= V/2, so its density modularity
// (w_C - V²/(4w_G))/|S| is at most φ(V)/st.size with
// φ(V) = V/2 - V²/(4w_G) — φ is never negative there, as the component's
// node weights are part of the graph's, dC <= 2w_G — and its classic
// modularity (w_C - V²/(4w_G))/w_G at most φ(V)/w_G. φ is a parabola
// peaking at V = w_G, so over [st.dS, dC] its maximum is at w_G clamped
// into that range. The generalized modularity density has no such bound.
func pruneBound(st prefixStats, dC, wG float64, opts Options) float64 {
	v := min(max(wG, st.dS), dC)
	phi := v/2 - v*v/(4*wG)
	switch opts.Objective {
	case ClassicModularity:
		return phi / wG
	case GeneralizedModularityDensity:
		return math.Inf(1)
	}
	return phi / float64(st.size)
}
