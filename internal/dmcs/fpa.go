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
// SearchSub), used only to reconstruct the result. The layers are the
// levels of a completed graph.Layering, peeled in place outermost first.
// The order within a level cannot change a pick, since the Θ heap pops
// by a total order (Θ, then k, then id) and the Λ scan picks by (Λ, then
// id); levels are listed in ascending ids only because the heap's first
// build then reads the rows in memory order (on the 16k-node whale
// expander, -cpu 1, eight alternating runs: median 5.18 ms in BFS order,
// 4.96 ms ascending).
func runFPA(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, useTheta bool) (*Result, error) {
	protected := steinerProtect(a, sub, q)
	if opts.LayerPruning {
		return fpaWithPruning(a, sub, protected, comp, opts, useTheta)
	}
	l := a.g.Layering(sub, protected)
	l.CompleteAscending()
	s := newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	for d := l.Levels() - 1; d >= 1; d-- {
		if s.expired() {
			break
		}
		peelLayer(s, l.Level(d), useTheta)
	}
	return s.result(), nil
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
// iteration. It swap-deletes inside remaining, a level of the query's
// graph.Layering that nothing reads after the peel.
//
//dmcs:hotpath
func peelLayerLambda(s *peelState, remaining []graph.Node) {
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
// Both phases read one graph.Layering of the component around the
// protected set, and phase 2 peels its level j in place. On an unweighted
// sub phase 1 is sweepBall: it layers the component one BFS level at a
// time, scores each ball inside out from exact integer statistics, and
// stops layering once a bound shows that no larger ball can score better,
// so it reads only the adjacency it needs. Phase 2 then peels on a view
// of the ball built from the layering, which reads only the outermost
// layer's rows. A weighted sub completes the layering with every level in
// ascending ids and sweeps outside in (bestPrefix): its prefixes' w_C
// must be summed in the order serial removal used to keep their
// Float64bits, and that order runs from the outermost layer in.
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

	// comp2 holds the kept prefix's members in local ids, ascending.
	var (
		j        int
		comp2    []graph.Node
		v        *graph.CSRView
		timedOut bool
	)
	l := a.g.Layering(sub, protected)
	if sub.Weighted() {
		l.CompleteAscending()
		j, timedOut = bestPrefix(l, sub, opts, &poll)
		comp2 = prefixMembers(a, l.Dist(), j)
		v = a.g.ViewOf(1, sub, comp2)
	} else {
		var b ballPrefix
		b, timedOut = sweepBall(l, sub, opts, &poll)
		j = b.j
		comp2 = prefixMembers(a, l.Dist(), j)
		v = a.g.ViewOfBall(1, l, int32(j), b.st.wC, b.st.dS)
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
		peelLayer(s, l.Level(j), useTheta)
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

// bestPrefix is a weighted sub's phase 1 over l, completed with every
// level ascending: it scores the prefix left after dropping each
// outermost level in turn and returns the distance bound of the best one
// (ties go to the smaller prefix) and whether poll expired before the
// last level.
func bestPrefix(l *graph.Layering, sub *graph.SubCSR, opts Options, poll *deadlinePoller) (bestJ int, timedOut bool) {
	dist, maxD, wG := l.Dist(), l.Levels()-1, sub.TotalWeight()
	st := prefixStats{wC: sub.InternalWeight(), dS: sub.MemberWeightSum(), size: sub.NumNodes()}
	bestJ, bestScore := maxD, scoreStats(st, wG, opts)
	for d := maxD; d >= 1; d-- {
		if poll.check() {
			return bestJ, true
		}
		st = dropLayer(sub, dist, l.Level(d), int32(d), st)
		if sc := scoreStats(st, wG, opts); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}
	return bestJ, false
}

// ballPrefix is the ball unweighted pruning keeps: B_j, levels 0 to j of
// its Layering, whose outermost level has outerEntries adjacency entries,
// with B_j's statistics.
type ballPrefix struct {
	j, outerEntries int
	st              prefixStats
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
	level := l.Level(0) // the protected set
	st := prefixStats{size: len(level)}
	for _, u := range level {
		st.dS += wdeg[u]
	}
	entries := 0
	best.j = -1
	var bestScore float64
	for d := 1; ; d++ {
		var e, cross int
		level, e, cross = l.Step()
		entries += e
		st.wC = float64((entries - cross) / 2)
		if sc := scoreStats(st, wG, opts); best.j < 0 || sc > bestScore {
			bestScore = sc
			best = ballPrefix{j: d - 1, outerEntries: e, st: st}
		}
		if len(level) == 0 {
			return best, false
		}
		st.size += len(level)
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
