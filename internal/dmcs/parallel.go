package dmcs

import (
	"math"
	"runtime"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// Intra-query parallelism (Options.Parallelism) dispatch. The peel's
// parallelizable phases — BFS layering, the Θ-heap fill, and NCA's
// candidate argmax — fan out across a bounded gang of workers
// (graph.ParRange) when the component is large enough to pay for the
// coordination; everything below the thresholds runs the untouched
// serial kernels. The parallel kernels are exact, not merely
// deterministic: every value a worker writes is schedule-independent (a
// BFS level; a candidate's score, its float sum in packed-adjacency
// order) and lands at a fixed position, and cross-worker merges combine
// under a total order (argmax), so results are bit-identical to
// Parallelism == 1 (TestParallelPeelBitIdentical pins this under -race).
//
// What stays serial, deliberately: fpaWithPruning's phase 1 (a read-only
// sweep, one pass over the component's adjacency), the Θ-heap drain (a
// sequential dependence chain — each pop depends on the pushes of the
// previous removal), NCA's certificate checks, referee Tarjan and tree
// rebuild, and peelLayerLambda's rescan loop. NCA's scan is about half of
// its cost, so its speedup is bounded (documented in the README).

// Parallelism thresholds. Vars, not consts, so the differential tests
// can lower them and exercise the parallel kernels on test-sized graphs;
// production code treats them as constants.
var (
	// parallelMinNodes is the component size below which a search
	// ignores Options.Parallelism entirely: gang coordination costs more
	// than the whole peel on small components (the overwhelmingly common
	// case — this keeps the engine's small-query serving exactly as
	// allocation- and overhead-free as before).
	parallelMinNodes = 1 << 13
	// parallelMinLayer is the per-layer candidate count below which a
	// layer's Θ fill stays serial even when the search as a whole is
	// parallel.
	parallelMinLayer = 1 << 9
)

// effectiveParallelism resolves Options.Parallelism for an n-node
// component: <=1 (or a small component) means serial; larger values are
// capped at GOMAXPROCS, since extra gang members beyond runnable Ps only
// add scheduling latency to every round barrier.
func effectiveParallelism(requested, n int) int {
	if requested <= 1 || n < parallelMinNodes {
		return 1
	}
	if mx := runtime.GOMAXPROCS(0); requested > mx {
		requested = mx
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// bfsInto layers sub by distance from sources: the CSR's own BFS when the
// search is serial, the gang BFS over an all-alive view (slot 0, which
// no caller has claimed yet) when it is parallel. Levels are unique, so
// both write the same distances.
func bfsInto(a *Arena, sub *graph.SubCSR, sources []graph.Node, par int) []int32 {
	k := sub.NumNodes()
	if par > 1 {
		return a.g.ViewAll(0, sub).MultiSourceBFSParInto(sources, a.g.Dist(0, k), a.g.Queue(k), par, a.g.ParNext(par))
	}
	return sub.MultiSourceBFSInto(sources, a.g.Dist(0, k), a.g.Queue(k))
}

// fillThetaChunk scores cand[lo:hi) into items[lo:hi) — the parallel
// Θ-heap fill writes each candidate's entry to its fixed position, so
// the filled slice (and therefore the heap built from it) is identical
// to the serial append loop. Reads only immutable per-round state: the
// view's alive flags and the packed weights.
//
//dmcs:hotpath
func fillThetaChunk(s *peelState, cand []graph.Node, items []thetaItem, lo, hi int) {
	for i := lo; i < hi; i++ {
		items[i] = thetaOf(s, cand[i])
	}
}

// ncaScanChunk scans candidate local ids [lo, hi) and returns the best
// one under the serial scan's total order: higher pick score first, then
// farther from the query, then smaller id. Because that is a total order
// on candidates, per-chunk maxima merged under the same comparator
// (ncaBetter) reproduce the serial full-scan winner exactly, independent
// of chunk boundaries. A candidate is a non-skipped (alive, non-query)
// node without a live articulation witness; the scan only reads the
// peel's tables, so concurrent chunks share them without synchronization.
//
//dmcs:hotpath
func ncaScanChunk(p *ncaPeel, dS float64, lo, hi int) (graph.Node, float64) {
	s := p.s
	v, wG := s.v, s.wG
	// len == hi lets the compiler drop the per-element bounds checks
	skip, witness, k, wdeg, dist := p.skip[:hi], p.witness[:hi], p.k[:hi], s.wdeg[:hi], p.dist
	var best graph.Node = -1
	bestScore := math.Inf(-1)
	for ui := max(lo, 0); ui < hi; ui++ {
		if skip[ui] {
			continue
		}
		if w := witness[ui]; w >= 0 && v.Alive(w) {
			continue
		}
		var sc float64
		if p.theta {
			sc = modularity.ThetaF(wdeg[ui], k[ui])
		} else {
			sc = modularity.LambdaF(wG, dS, k[ui], wdeg[ui])
		}
		u := graph.Node(ui)
		switch {
		case sc > bestScore:
			bestScore, best = sc, u
		case sc == bestScore && best >= 0:
			if dist[u] > dist[best] || (dist[u] == dist[best] && u < best) {
				best = u
			}
		}
	}
	return best, bestScore
}

// ncaBetter reports whether candidate (u, su) beats (b, sb) under the
// scan's total order; b < 0 means "no candidate yet".
func ncaBetter(u graph.Node, su float64, b graph.Node, sb float64, dist []int32) bool {
	if b < 0 {
		return u >= 0
	}
	if u < 0 || su != sb {
		return su > sb
	}
	return dist[u] > dist[b] || (dist[u] == dist[b] && u < b)
}

// ncaScanPar fans the candidate scan out over par workers and merges the
// chunk winners in fixed chunk order under the same total order the
// serial scan uses.
func ncaScanPar(p *ncaPeel, dS float64, n, par int) (graph.Node, float64) {
	a := p.s.a
	nodeBuf := growNodeSlice(a.parNode, par)
	scoreBuf := growFloat64Slice(a.parScore, par)
	for w := 0; w < par; w++ {
		nodeBuf[w] = -1
		scoreBuf[w] = math.Inf(-1)
	}
	a.parNode, a.parScore = nodeBuf, scoreBuf
	graph.ParRange(par, n, func(chunk, lo, hi int) {
		nodeBuf[chunk], scoreBuf[chunk] = ncaScanChunk(p, dS, lo, hi)
	})
	var best graph.Node = -1
	bestScore := math.Inf(-1)
	for w := 0; w < par; w++ {
		if ncaBetter(nodeBuf[w], scoreBuf[w], best, bestScore, p.dist) {
			best, bestScore = nodeBuf[w], scoreBuf[w]
		}
	}
	return best, bestScore
}
