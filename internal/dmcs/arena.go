package dmcs

import (
	"sync"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// Arena bundles every piece of scratch memory one community-search query
// needs — the graph-level arena (sub-CSR extraction, view backing, the BFS
// layering whose levels the peel reads in place, articulation scratch)
// plus the peel-level buffers (removal trace, Θ priority queue, protected
// sets). Checked out per query
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
	comp2     []graph.Node // pruning phase-2 prefix members (local ids)
	nbrs      []graph.Node // alive neighbours of the node removed last
	compBuf   []graph.Node // SearchCSR component flood queue / member list

	// pruneReads is the adjacency entries the last unweighted pruned
	// search read in phase 1 and in building its ball view.
	pruneReads int

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
	// pos is poisoned to 1, every node claiming the heap's root: a
	// negative junk value would read as "not queued" and prove nothing.
	pos := a.pq.pos[:cap(a.pq.pos)]
	for i := range pos {
		pos[i] = 1
	}
	poisonNodes(a.protected)
	poisonNodes(a.localQ)
	poisonNodes(a.comp2)
	poisonNodes(a.nbrs)
	poisonNodes(a.compBuf)
	a.ps = peelState{}
	// a.nca's dist and skip are graph-arena buffers, poisoned above
	poisonNodes(a.nca.parent)
	poisonNodes(a.nca.first)
	poisonNodes(a.nca.sib)
	poisonNodes(a.nca.prev)
	poisonInt32s(a.nca.key)
	poisonNodes(a.nca.witness)
	poisonFloat64s(a.nca.k)
	poisonNodes(a.nca.subtree)
	poisonNodes(a.nca.cand)
	poisonInt32s(a.nca.cpos)
	// Stamps read 2, the member stamp of a search's first re-hang: a
	// search that trusted them instead of clearing them would take every
	// node for a member of the subtree.
	stamp := a.nca.stamp[:cap(a.nca.stamp)]
	for i := range stamp {
		stamp[i] = 2
	}
	poisonInt32s(a.nca.byDeg)
	poisonInt64s(a.nca.ord)
	// head reads 0, every class claiming a head of key 0: -1 would read
	// as "empty" and prove nothing.
	head := a.nca.head[:cap(a.nca.head)]
	for i := range head {
		head[i] = 0
	}
	poisonFloat64s(a.nca.cdeg)
	poisonInt32s(a.nca.cls)
	poisonInt32s(a.nca.cOff)
	poisonInt32s(a.nca.cLen)
	poisonNodes(a.nca.heap)
	// pos and parked read 0, every node claiming a heap slot and node 0's
	// park list: negative junk would read as "not indexed".
	ipos := a.nca.pos[:cap(a.nca.pos)]
	for i := range ipos {
		ipos[i] = 0
	}
	parked := a.nca.parked[:cap(a.nca.parked)]
	for i := range parked {
		parked[i] = 0
	}
	poisonNodes(a.nca.next)
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

func poisonInt64s(s []int64) {
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

func growInt64Slice(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growFloat64Slice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// thetaPQ is the production Θ max-heap, indexed by node: pos[u] is 1 +
// u's index in items, or 0 when u is not queued, so a neighbour whose Θ a
// removal changed is re-scored where it sits instead of being pushed
// again. It holds at most one layer, and never a stale entry.
//
// Its pops are the reference peel's direct argmax over the layer
// (internal/dmcsref): at every step the best current (Θ, k, id) of the
// alive queued nodes under a total order, Θ descending, then k
// ascending, then id ascending. Items are distinct nodes, so no two
// compare equal, and the maximum does not depend on the heap's shape.
// With non-negative weights a removal only lowers a neighbour's k (k is a
// fresh in-order sum over its alive neighbours), so its Θ = d/k only
// rises and its item only moves up; update tries a sift down when the
// sift up did not move it, so a graph given negative weights through the
// Builder keeps the order as well.
type thetaPQ struct {
	items []thetaItem
	pos   []int32 // 1 + heap index per local node; 0 when absent
}

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

func (h *thetaPQ) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = int32(i + 1)
	h.pos[h.items[j].node] = int32(j + 1)
}

// init indexes and heapifies items.
func (h *thetaPQ) init() {
	for i, it := range h.items {
		h.pos[it.node] = int32(i + 1)
	}
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// pop removes the best node and returns it.
func (h *thetaPQ) pop() graph.Node {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	u := h.items[n].node
	h.pos[u] = 0
	h.items = h.items[:n]
	return u
}

// update rewrites the item at heap index i and restores the heap order.
func (h *thetaPQ) update(i int, it thetaItem) {
	h.items[i] = it
	if !h.up(i) {
		h.down(i, len(h.items))
	}
}

// reset empties the heap, leaving pos all-zero.
func (h *thetaPQ) reset() {
	for _, it := range h.items {
		h.pos[it.node] = 0
	}
	h.items = h.items[:0]
}

// up sifts item j towards the root and reports whether it moved.
func (h *thetaPQ) up(j int) bool {
	j0 := j
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
	return j != j0
}

func (h *thetaPQ) down(i, n int) {
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
		h.swap(i, j)
		i = j
	}
}

// thetaOf is the Θ score of node u in the current subgraph paired with
// the cached k it was computed from.
func thetaOf(s *peelState, u graph.Node) thetaItem {
	k := s.kOf(u)
	return thetaItem{u, modularity.ThetaF(s.dOf(u), k), k}
}
