package dmcs

import (
	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// pickFunc scores a removable candidate; larger is better (removed first).
// kv is the candidate's (weighted) degree into the current subgraph, dv
// its node weight, dS the current node-weight sum, wG the total edge
// weight (|E| when unweighted).
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

// recompactMinAlive is the smallest alive set worth rebuilding a sub-CSR
// for; below it the O(alive) rebuild costs more than the scans it saves.
const recompactMinAlive = 32

// runNCA implements the non-articulation peeling loop shared by NCA and
// NCA-DR: every iteration recomputes the articulation points of the
// current subgraph, then removes the non-articulation non-query node with
// the best pick score. Ties keep the node closer to the query (the
// farther node is removed), then break on node id for determinism.
//
// The loop runs entirely in the compact local id space of sub, and it
// re-compacts geometrically: whenever the alive set halves, the sub-CSR
// is rebuilt from the survivors, so the per-iteration articulation DFS
// and candidate rescan cost O(alive) instead of O(initial component) —
// the total work drops from iterations·(n+m) to a geometric series over
// the shrinking alive set. Aggregates (w_C, d_S) are carried, not
// recomputed, across rebuilds, and local ids stay order-isomorphic to
// source ids, so scores and tie-breaks are bit-identical to an
// uncompacted peel (TestDifferentialLegacyVsCSR exercises exactly this).
func runNCA(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, pick pickFunc) (*Result, error) {
	k := sub.NumNodes()
	// minimum shortest-path distance from the query nodes, for tie-breaks
	dist := bfsInto(a, sub, q, effectiveParallelism(opts.Parallelism, k))
	s := newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	isQuery := a.g.Marks(0, k)
	for _, u := range q {
		isQuery[u] = true
	}
	// next arena slots for the re-compaction ping-pong (slot 0 of each
	// resource currently backs sub / the view / dist / isQuery)
	subSlot, viewSlot, markSlot := 1, 1, 1

	weighted := sub.Weighted()

	for s.v.NumAlive() > len(q) {
		if s.expired() {
			break
		}
		// On weighted snapshots the articulation sweep doubles as the
		// k_{v,S} pass: the DFS cursor already visits every alive edge in
		// ascending order, so the fused sums are bit-identical to
		// per-candidate rescans at half the memory traffic. Unweighted
		// k_{v,S} is the O(1) alive degree — nothing to fuse.
		var art []bool
		var kArr []float64
		if weighted {
			kArr = a.g.KSum(s.sub.NumNodes())
			art = s.v.ArticulationPointsKInto(a.g.Art(), kArr)
		} else {
			art = s.v.ArticulationPointsInto(a.g.Art())
		}
		// The candidate scan picks the maximum under a total order (pick
		// score, then distance from the query — farther removed first —
		// then smaller id), so it parallelizes exactly: chunk maxima
		// merged under the same order reproduce the serial winner. The
		// articulation DFS above stays serial and dominates NCA's cost,
		// which bounds this variant's parallel speedup (see README).
		dS := s.v.NodeWeightSum()
		n := s.sub.NumNodes()
		var best graph.Node
		if s.par > 1 && n >= parallelMinNodes {
			best, _ = ncaScanPar(s, art, isQuery, kArr, dist, dS, weighted, pick, n, s.par)
		} else {
			best, _ = ncaScanChunk(s, art, isQuery, kArr, dist, dS, weighted, pick, 0, n)
		}
		if best < 0 {
			break // only articulation or query nodes remain
		}
		s.remove(best)

		// Rebuild when the alive nodes OR the alive edges have halved
		// since the last compaction — the DFS walks every packed entry of
		// an alive node, so dead-entry buildup (hub neighborhoods dying
		// off) costs even while the node count barely moves.
		if alive := s.v.NumAlive(); alive >= recompactMinAlive && alive > len(q) &&
			(2*alive <= s.sub.NumNodes() || 2*s.v.NumAliveEdges() <= s.sub.NumEdges()) {
			// Geometric re-compaction: rebuild the sub-CSR over the
			// survivors and remap the per-node side tables.
			members := a.g.Nodes(0, alive)
			idx := 0
			for ui := 0; ui < s.sub.NumNodes(); ui++ {
				if s.v.Alive(graph.Node(ui)) {
					members[idx] = graph.Node(ui)
					idx++
				}
			}
			members = members[:idx]
			prev := s.sub
			next := a.g.ExtractSub(subSlot, &prev.CSR, members)
			// ExtractSub recorded members in prev's id space; rewrite
			// them into source ids so GlobalOf keeps meaning the same
			// thing across generations.
			globals := next.Globals()
			for i, old := range members {
				globals[i] = prev.GlobalOf(old)
			}
			// Carry the incrementally maintained aggregates — fresh
			// accumulation would change float summation order.
			next2 := a.g.ViewAllWith(viewSlot, next, s.v.InternalWeight(), s.v.NodeWeightSum())
			nd := a.g.Dist(1, len(members))
			nq := a.g.Marks(markSlot, len(members))
			for i, old := range members {
				nd[i] = dist[old]
				nq[i] = isQuery[old]
			}
			a.g.SwapDist()
			dist, isQuery = nd, nq
			s.sub, s.v, s.wdeg = next, next2, next.WeightedDegrees()
			subSlot, viewSlot, markSlot = 1-subSlot, 1-viewSlot, 1-markSlot
		}
	}
	return s.result(), nil
}
