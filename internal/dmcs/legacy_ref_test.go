package dmcs

// This file preserves the original implementation of the four search
// variants as a frozen reference; TestDifferentialLegacyVsCSR asserts that
// the production peel returns bit-identical communities and scores on
// random weighted and unweighted graphs. Since a Graph is its packed CSR
// and graph.CSRView is the only alive set, the reference reads the same
// arrays as production. What it stays independent in is the algorithm:
// the Θ heap is the standard library's container/heap (production
// hand-rolls the same moves on a concrete type), the layer-pruning sweep
// removes each layer node by node (production scores prefixes without
// removing), the NCA loop runs a full Tarjan sweep before every removal (production
// carries certificates), and weights are evaluated per neighbour through
// Graph.EdgeWeight (a binary search per call) instead of the parallel
// weights row. It goes when ROADMAP item 1(a)'s naive reference exists.

import (
	"container/heap"
	"math"
	"slices"
	"time"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// legacySearch is the historical Search: validate the query, extract the
// sorted component, dispatch the variant.
func legacySearch(g *graph.Graph, q []graph.Node, variant Variant, opts Options) (*Result, error) {
	comp, err := legacyQueryComponent(g, q)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	switch variant {
	case VariantNCA:
		return legacyRunNCA(g, q, comp, opts, pickLambda)
	case VariantNCADR:
		return legacyRunNCA(g, q, comp, opts, pickTheta)
	case VariantFPA:
		return legacyRunFPA(g, q, comp, opts, true)
	case VariantFPADMG:
		return legacyRunFPA(g, q, comp, opts, false)
	}
	panic("unknown variant")
}

func legacyQueryComponent(g *graph.Graph, q []graph.Node) ([]graph.Node, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	for _, u := range q {
		if u < 0 || int(u) >= g.NumNodes() {
			return nil, errOutOfRange
		}
	}
	if !graph.SameComponent(g, q) {
		return nil, ErrDisconnected
	}
	comp, _ := graph.NewCSR(g).Component(q[0])
	return comp, nil
}

type legacyPeelState struct {
	g         *graph.Graph
	v         *graph.CSRView
	weighted  bool
	wG        float64
	wC        float64
	dS        float64
	wdeg      []float64
	opts      Options
	comp      []graph.Node
	trace     []graph.Node
	bestIdx   int
	bestScore float64
	deadline  time.Time
	timedOut  bool
}

func newLegacyPeelState(g *graph.Graph, comp []graph.Node, opts Options) *legacyPeelState {
	s := &legacyPeelState{
		g:        g,
		v:        graph.NewCSRViewOf(graph.NewCSR(g), comp),
		weighted: g.Weighted(),
		wG:       g.TotalWeight(),
		opts:     opts,
		comp:     comp,
	}
	s.wdeg = make([]float64, g.NumNodes())
	for _, u := range comp {
		s.wdeg[u] = g.WeightedDegree(u)
	}
	for _, u := range comp {
		s.dS += s.wdeg[u]
	}
	if s.weighted {
		for _, u := range comp {
			for _, w := range g.Neighbors(u) {
				if s.v.Alive(w) && u < w {
					s.wC += g.EdgeWeight(u, w)
				}
			}
		}
	} else {
		s.wC = float64(s.v.NumAliveEdges())
	}
	s.bestScore = s.score()
	if opts.Timeout > 0 {
		s.deadline = time.Now().Add(opts.Timeout)
	}
	return s
}

func (s *legacyPeelState) kOf(u graph.Node) float64 {
	if !s.weighted {
		return float64(s.v.DegreeIn(u))
	}
	var k float64
	for _, w := range s.g.Neighbors(u) {
		if s.v.Alive(w) {
			k += s.g.EdgeWeight(u, w)
		}
	}
	return k
}

func (s *legacyPeelState) dOf(u graph.Node) float64 { return s.wdeg[u] }

func (s *legacyPeelState) score() float64 {
	size := s.v.NumAlive()
	switch s.opts.Objective {
	case ClassicModularity:
		return modularity.ClassicPartsF(s.wC, s.dS, s.wG)
	case GeneralizedModularityDensity:
		chi := s.opts.Chi
		if chi == 0 {
			chi = 1
		}
		return modularity.GeneralizedDensityPartsF(s.wC, s.dS, s.wG, size, chi)
	default:
		return modularity.DensityPartsF(s.wC, s.dS, s.wG, size)
	}
}

func (s *legacyPeelState) remove(u graph.Node) {
	s.wC -= s.kOf(u)
	s.v.Remove(u)
	s.dS -= s.wdeg[u]
	s.trace = append(s.trace, u)
	if sc := s.score(); sc >= s.bestScore {
		s.bestScore = sc
		s.bestIdx = len(s.trace)
	}
}

func (s *legacyPeelState) expired() bool {
	if s.timedOut {
		return true
	}
	if s.deadline.IsZero() {
		return false
	}
	if time.Now().After(s.deadline) {
		s.timedOut = true
	}
	return s.timedOut
}

func (s *legacyPeelState) result() *Result {
	dead := make(map[graph.Node]bool, s.bestIdx)
	for _, u := range s.trace[:s.bestIdx] {
		dead[u] = true
	}
	community := make([]graph.Node, 0, len(s.comp)-s.bestIdx)
	for _, u := range s.comp {
		if !dead[u] {
			community = append(community, u)
		}
	}
	r := &Result{
		Community:  community,
		Score:      s.bestScore,
		Iterations: len(s.trace),
		TimedOut:   s.timedOut,
	}
	if s.opts.TrackOrder {
		r.RemovalOrder = append([]graph.Node(nil), s.trace...)
	}
	return r
}

func legacyRunNCA(g *graph.Graph, q, comp []graph.Node, opts Options, pick pickFunc) (*Result, error) {
	s := newLegacyPeelState(g, comp, opts)
	isQuery := make(map[graph.Node]bool, len(q))
	for _, u := range q {
		isQuery[u] = true
	}
	dist := graph.MultiSourceBFS(g, q)

	for s.v.NumAlive() > len(q) {
		if s.expired() {
			break
		}
		art := s.v.ArticulationPoints()
		var best graph.Node = -1
		bestScore := math.Inf(-1)
		for _, u := range comp {
			if !s.v.Alive(u) || art[u] || isQuery[u] {
				continue
			}
			sc := pick(s.wG, s.dS, s.kOf(u), s.dOf(u))
			switch {
			case sc > bestScore:
				bestScore, best = sc, u
			case sc == bestScore && best >= 0:
				if dist[u] > dist[best] || (dist[u] == dist[best] && u < best) {
					best = u
				}
			}
		}
		if best < 0 {
			break
		}
		s.remove(best)
	}
	return s.result(), nil
}

func legacySteinerProtect(g *graph.Graph, q []graph.Node) []graph.Node {
	if len(q) <= 1 {
		return append([]graph.Node(nil), q...)
	}
	parent := make([]graph.Node, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	root := q[0]
	parent[root] = root
	queue := []graph.Node{root}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.Neighbors(u) {
			if parent[w] < 0 {
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	set := map[graph.Node]bool{root: true}
	for _, t := range q[1:] {
		for u := t; !set[u]; u = parent[u] {
			if parent[u] < 0 {
				break
			}
			set[u] = true
		}
	}
	out := make([]graph.Node, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// thetaHeap is the historical container/heap-backed Θ max-heap. The
// production path uses the concrete thetaPQ (same ordering, same
// binary-heap moves, no interface boxing); this one stays as the frozen
// reference it must match pop-for-pop.
type thetaHeap []thetaItem

func (h thetaHeap) Len() int { return len(h) }
func (h thetaHeap) Less(i, j int) bool {
	if h[i].theta != h[j].theta {
		return h[i].theta > h[j].theta // max-heap on Θ
	}
	// Θ ties are common (every fully-internal node has Θ = 1). Break them
	// the way the exact criterion Λ would: with k_v = Θ·d_v fixed, Λ =
	// k_v·(Θ(2d_S − Θk_v) − 4w_G) is maximized by the smallest k_v at the
	// start of peeling, so remove low-degree nodes first.
	if h[i].k != h[j].k {
		return h[i].k < h[j].k
	}
	return h[i].node < h[j].node
}
func (h thetaHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *thetaHeap) Push(x interface{}) { *h = append(*h, x.(thetaItem)) }
func (h *thetaHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// groupLayers buckets comp by distance; unreachable nodes cannot occur
// because comp is a connected component containing the sources. (The
// production path uses the arena's flat bucket structure; this
// append-per-node grouping is the historical shape it must match.)
func groupLayers(comp []graph.Node, dist []int32) ([][]graph.Node, int) {
	maxD := int32(0)
	for _, u := range comp {
		if dist[u] > maxD {
			maxD = dist[u]
		}
	}
	layers := make([][]graph.Node, maxD+1)
	for _, u := range comp {
		layers[dist[u]] = append(layers[dist[u]], u)
	}
	return layers, int(maxD)
}

func legacyRunFPA(g *graph.Graph, q, comp []graph.Node, opts Options, useTheta bool) (*Result, error) {
	protected := legacySteinerProtect(g, q)
	if opts.LayerPruning {
		return legacyFPAWithPruning(g, comp, protected, opts, useTheta)
	}
	s := newLegacyPeelState(g, comp, opts)
	dist := s.v.MultiSourceBFS(protected)
	layers, maxD := groupLayers(comp, dist)
	for d := maxD; d >= 1; d-- {
		if s.expired() {
			break
		}
		legacyPeelLayer(s, layers[d], useTheta)
	}
	return s.result(), nil
}

func legacyPeelLayer(s *legacyPeelState, cand []graph.Node, useTheta bool) {
	if useTheta {
		legacyPeelLayerTheta(s, cand)
	} else {
		legacyPeelLayerLambda(s, cand)
	}
}

func legacyPeelLayerTheta(s *legacyPeelState, cand []graph.Node) {
	inLayer := make(map[graph.Node]bool, len(cand))
	for _, u := range cand {
		inLayer[u] = true
	}
	h := make(thetaHeap, 0, len(cand))
	for _, u := range cand {
		k := s.kOf(u)
		h = append(h, thetaItem{u, modularity.ThetaF(s.dOf(u), k), k})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		if s.expired() {
			return
		}
		it := heap.Pop(&h).(thetaItem)
		u := it.node
		if !s.v.Alive(u) || s.kOf(u) != it.k {
			continue
		}
		s.remove(u)
		delete(inLayer, u)
		for _, w := range s.g.Neighbors(u) {
			if s.v.Alive(w) && inLayer[w] {
				k := s.kOf(w)
				heap.Push(&h, thetaItem{w, modularity.ThetaF(s.dOf(w), k), k})
			}
		}
	}
}

func legacyPeelLayerLambda(s *legacyPeelState, cand []graph.Node) {
	remaining := append([]graph.Node(nil), cand...)
	for len(remaining) > 0 {
		if s.expired() {
			return
		}
		bestI := -1
		bestScore := math.Inf(-1)
		for i, u := range remaining {
			sc := modularity.LambdaF(s.wG, s.dS, s.kOf(u), s.dOf(u))
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

func legacyFPAWithPruning(g *graph.Graph, comp, protected []graph.Node, opts Options, useTheta bool) (*Result, error) {
	vAll := graph.NewCSRViewOf(graph.NewCSR(g), comp)
	dist := vAll.MultiSourceBFS(protected)
	layers, maxD := groupLayers(comp, dist)
	wG := g.TotalWeight()
	weighted := g.Weighted()
	wdegOf := g.WeightedDegree

	var dSum, wC float64
	for _, u := range comp {
		dSum += wdegOf(u)
	}
	if weighted {
		for _, u := range comp {
			for _, w := range g.Neighbors(u) {
				if vAll.Alive(w) && u < w {
					wC += g.EdgeWeight(u, w)
				}
			}
		}
	} else {
		wC = float64(vAll.NumAliveEdges())
	}
	kOf := func(u graph.Node) float64 {
		if !weighted {
			return float64(vAll.DegreeIn(u))
		}
		var k float64
		for _, w := range g.Neighbors(u) {
			if vAll.Alive(w) {
				k += g.EdgeWeight(u, w)
			}
		}
		return k
	}
	scoreOf := func() float64 {
		size := vAll.NumAlive()
		switch opts.Objective {
		case ClassicModularity:
			return modularity.ClassicPartsF(wC, dSum, wG)
		case GeneralizedModularityDensity:
			chi := opts.Chi
			if chi == 0 {
				chi = 1
			}
			return modularity.GeneralizedDensityPartsF(wC, dSum, wG, size, chi)
		default:
			return modularity.DensityPartsF(wC, dSum, wG, size)
		}
	}
	bestJ, bestScore := maxD, scoreOf()
	phase1 := 0
	for d := maxD; d >= 1; d-- {
		for _, u := range layers[d] {
			wC -= kOf(u)
			vAll.Remove(u)
			dSum -= wdegOf(u)
			phase1++
		}
		if sc := scoreOf(); sc >= bestScore {
			bestScore, bestJ = sc, d-1
		}
	}

	var comp2 []graph.Node
	for _, u := range comp {
		if int(dist[u]) <= bestJ {
			comp2 = append(comp2, u)
		}
	}
	s := newLegacyPeelState(g, comp2, opts)
	if bestJ >= 1 {
		legacyPeelLayer(s, layers[bestJ], useTheta)
	}
	r := s.result()
	r.Iterations += phase1
	return r, nil
}
