package dmcs

import (
	"sync"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// Arena bundles every piece of scratch memory one community-search query
// needs — the graph-level arena (sub-CSR extraction, view backing, BFS
// and articulation scratch) plus the peel-level buffers (removal trace,
// Θ priority queue, layer buckets, protected sets). Checked out per query
// and reused forever, it makes steady-state query serving allocation-free
// except for the returned Result itself: the only heap allocations a warm
// arena's search performs are the Community slice (and RemovalOrder when
// requested), which must escape to the caller.
//
// Arenas are not safe for concurrent use. internal/engine owns one per
// worker; the package-level entry points (Search, SearchCSR) draw from a
// sync.Pool, so they too stop allocating scratch once the pool is warm.
type Arena struct {
	g graph.Arena

	ps        peelState
	trace     []graph.Node // removal order, global ids
	dead      []graph.Node // sorted trace prefix for result reconstruction
	pq        thetaPQ      // Θ max-heap (concrete, no boxing)
	protected []graph.Node
	localQ    []graph.Node
	remaining []graph.Node // peelLayerLambda candidate scratch
	comp2     []graph.Node // pruning phase-2 prefix members (local ids)
	compBuf   []graph.Node // SearchCSR component flood queue / member list

	layerOff     []int32      // layer bucket offsets (len maxD+2)
	layerNodes   []graph.Node // bucketed layer members, outermost-last
	layerFill    []int32      // bucket fill cursors
	layerInLayer []int32      // per-local-node layer generation tag
	layerGen     int32        // reset per query; bumped per theta layer

	nca ncaPeel // NCA state and certificate tables, grown by NCA searches only
}

// NewArena returns an empty arena; buffers are sized by the first query.
func NewArena() *Arena { return &Arena{} }

// Poison overwrites every arena-owned buffer with garbage (see
// graph.Arena.Poison). It exists for tests proving the zero-alloc reuse
// contract: a search on a poisoned arena must return exactly what a
// search on a fresh arena returns, or some buffer is being read before it
// is rewritten.
func (a *Arena) Poison() {
	a.g.Poison()
	const junk = -0x5A5A
	poisonNodes(a.trace)
	poisonNodes(a.dead)
	items := a.pq.items[:cap(a.pq.items)]
	for i := range items {
		items[i] = thetaItem{junk, junk, junk}
	}
	poisonNodes(a.protected)
	poisonNodes(a.localQ)
	poisonNodes(a.remaining)
	poisonNodes(a.comp2)
	poisonNodes(a.compBuf)
	poisonInt32s(a.layerOff)
	poisonNodes(a.layerNodes)
	poisonInt32s(a.layerFill)
	poisonInt32s(a.layerInLayer)
	a.layerGen = junk
	a.ps = peelState{}
	// a.nca's dist and skip are graph-arena buffers, poisoned above
	poisonNodes(a.nca.parent)
	poisonInt32s(a.nca.nchild)
	poisonInt32s(a.nca.key)
	poisonNodes(a.nca.witness)
	poisonFloat64s(a.nca.k)
}

func poisonNodes(s []graph.Node) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = -0x5A5A
	}
}

func poisonInt32s(s []int32) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = -0x5A5A
	}
}

func poisonFloat64s(s []float64) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = -23130.23130
	}
}

// arenaPool backs the non-engine entry points.
var arenaPool = sync.Pool{New: func() interface{} { return NewArena() }}

func growNodeSlice(s []graph.Node, n int) []graph.Node {
	if cap(s) < n {
		return make([]graph.Node, n)
	}
	return s[:n]
}

func growInt32Slice(s []int32, n int) []int32 {
	if cap(s) < n {
		//dmcs:allow hotpath grow-once arena resize: amortized to zero per query after warmup
		return make([]int32, n)
	}
	return s[:n]
}

func growFloat64Slice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// thetaPQ is the production Θ max-heap: the same ordering and the same
// binary-heap algorithm as container/heap over thetaHeap (Init = sift
// down from the last parent; Push = append + sift up; Pop = swap root
// with last, sift down, shrink), but on a concrete element type, so no
// per-push interface boxing and no allocation on a warm arena. Mirroring
// container/heap's moves exactly keeps the pop order — and therefore the
// peel order — bit-identical to the frozen legacy implementation even
// when entries compare equal.
type thetaPQ struct{ items []thetaItem }

func (h *thetaPQ) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.theta != b.theta {
		return a.theta > b.theta // max-heap on Θ
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.node < b.node
}

func (h *thetaPQ) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *thetaPQ) push(it thetaItem) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

func (h *thetaPQ) pop() thetaItem {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it
}

func (h *thetaPQ) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *thetaPQ) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

// thetaOf is the Θ score of node u in the current subgraph paired with
// the cached k it was computed from.
func thetaOf(s *peelState, u graph.Node) thetaItem {
	k := s.kOf(u)
	return thetaItem{u, modularity.ThetaF(s.dOf(u), k), k}
}
