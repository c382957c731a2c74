package dmcs

import (
	"math"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// NCA and NCA-DR (Section 5.4, 6.2.5): every iteration removes, among the
// alive non-query nodes that are not articulation points of the alive
// subgraph, the one with the best pick score (Λ for NCA, Θ for NCA-DR).
// Ties keep the node closer to the query (the farther node is removed),
// then break on node id for determinism.
//
// The textbook loop runs a Hopcroft–Tarjan DFS before every removal —
// O(|V|(|V|+|E|)) overall, and still this loop's worst case. Two exact
// certificates, carried from one iteration to the next, decide almost
// every iteration without one:
//
//   - Removable. parent/nchild/key hold a spanning tree of the alive set
//     rooted at a query node; key is a discovery order, so
//     key[parent[c]] < key[c]. A leaf of a spanning tree is not an
//     articulation point: the rest of the tree still spans the rest of
//     the alive set. A candidate with children becomes a leaf once every
//     child c is re-hung under an alive neighbour w != u with
//     key[w] < key[c] — w cannot be a descendant of c (their keys are
//     larger), so no cycle forms and the invariant survives.
//   - Articulation. A Tarjan rooted at the tree root marks p because a
//     DFS child w has low[w] >= disc[p]: every path from w to the root
//     passes through p. Removals only shrink the components of alive − p
//     and the root is a query node, never removed, so p remains an
//     articulation point for as long as w is alive. witness[p] = w lets
//     the scan skip p with one load.
//
// The scan therefore takes the argmax over a superset of the textbook
// candidates (every alive non-query node without a live witness). If the
// winner is certified removable it is also the textbook winner — a
// maximum of a superset that lies in the subset — and is removed. Only
// when it cannot be made a leaf does the iteration referee: one Tarjan
// (which refreshes every witness), the scan again — now masked by exactly
// the articulation points — the removal, and a BFS rebuild of the tree.
// Either way the removed node is the one the textbook loop removes, so
// communities, scores, iteration counts and removal orders are
// bit-identical to it (FuzzNCACertificates checks every step; the
// reference's flood-per-candidate loop checks whole peels).
//
// The loop runs entirely in the compact local id space of sub, and it
// re-compacts geometrically: whenever the alive set halves, the sub-CSR
// is rebuilt from the survivors, so a scan or referee pass costs O(alive)
// instead of O(initial component). Aggregates (w_C, d_S) and the k_{v,S}
// table are carried, not recomputed, across rebuilds, and local ids stay
// order-isomorphic to source ids, so scores and tie-breaks do not move.

// recompactMinAlive is the smallest alive set worth rebuilding a sub-CSR
// for; below it the O(alive) rebuild costs more than the scans it saves.
const recompactMinAlive = 32

// ncaPeel is the state of one NCA / NCA-DR peel. It lives in the Arena:
// the per-node tables keep their capacity from query to query and are
// grown by newNCAPeel only, so arenas that never serve NCA never pay for
// them. All tables are indexed by the current sub's local ids.
type ncaPeel struct {
	s     *peelState
	nq    int        // |Q| (distinct): the peel stops when only the query is left
	theta bool       // pick by Θ (NCA-DR) instead of Λ (NCA)
	root  graph.Node // spanning-tree and Tarjan root: a query node
	slot  int        // arena sub/view slot the next re-compaction fills

	dist    []int32      // hops from the nearest query node (tie-break)
	skip    []bool       // query or dead: never a candidate
	parent  []graph.Node // spanning tree of the alive set; -1 at root and dead nodes
	nchild  []int32      // alive tree children
	key     []int32      // tree discovery order; MaxInt32 at dead nodes
	witness []graph.Node // articulation certificate, or -1
	k       []float64    // k_{v,S} of alive nodes (the alive degree when unweighted)
}

// newNCAPeel sets up the peel over sub with every node alive.
func newNCAPeel(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, theta bool) *ncaPeel {
	n := sub.NumNodes()
	// minimum shortest-path distance from the query nodes, for tie-breaks
	dist := bfsInto(a, sub, q)
	p := &a.nca
	p.s = newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	p.nq, p.theta, p.root, p.slot = 0, theta, q[0], 1
	p.dist = dist
	p.skip = a.g.Marks(0, n)
	for _, u := range q { // a repeated query node must not raise the stop size
		if !p.skip[u] {
			p.skip[u] = true
			p.nq++
		}
	}
	p.parent = growNodeSlice(p.parent, n)
	p.nchild = growInt32Slice(p.nchild, n)
	p.key = growInt32Slice(p.key, n)
	p.witness = growNodeSlice(p.witness, n)
	for i := range p.witness {
		p.witness[i] = -1
	}
	p.k = growFloat64Slice(p.k, n)
	for u := range p.k {
		p.k[u] = p.s.v.WeightedDegreeIn(graph.Node(u))
	}
	p.rebuildTree(a.g.Queue(n))
	return p
}

func runNCA(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, theta bool) (*Result, error) {
	p := newNCAPeel(a, sub, q, comp, opts, theta)
	for p.step() {
	}
	return p.s.result(), nil
}

// step performs one removal; false means the peel is over (only query or
// articulation nodes remain, or the deadline passed).
func (p *ncaPeel) step() bool {
	s := p.s
	if s.v.NumAlive() <= p.nq || s.expired() {
		return false
	}
	best := p.scan()
	if best < 0 {
		return false // every candidate carries a live witness
	}
	if p.makeLeaf(best) {
		p.nchild[p.parent[best]]--
		p.remove(best)
	} else {
		s.v.ArticulationWitnessesInto(s.a.g.Art(), p.root, p.witness)
		if best = p.scan(); best < 0 {
			return false
		}
		p.remove(best)
		p.rebuildTree(s.a.g.Queue(s.sub.NumNodes()))
	}
	// Rebuild when the alive nodes OR the alive edges have halved since
	// the last compaction — every pass walks the packed entries of alive
	// nodes, so dead-entry buildup (hub neighborhoods dying off) costs
	// even while the node count barely moves.
	if alive := s.v.NumAlive(); alive >= recompactMinAlive && alive > p.nq &&
		(2*alive <= s.sub.NumNodes() || 2*s.v.NumAliveEdges() <= s.sub.NumEdges()) {
		p.recompact()
	}
	return true
}

// scan returns the best candidate under the total order (pick score,
// then distance from the query — farther removed first — then smaller
// id), or -1. A candidate is a non-skipped (alive, non-query) node
// without a live articulation witness.
//
//dmcs:hotpath
func (p *ncaPeel) scan() graph.Node {
	s := p.s
	n := s.sub.NumNodes()
	v, wG, dS := s.v, s.wG, s.v.NodeWeightSum()
	// len == n lets the compiler drop the per-element bounds checks
	skip, witness, k, wdeg, dist := p.skip[:n], p.witness[:n], p.k[:n], s.wdeg[:n], p.dist
	var best graph.Node = -1
	bestScore := math.Inf(-1)
	for ui := 0; ui < n; ui++ {
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
	return best
}

// makeLeaf certifies that u is not an articulation point by making it a
// leaf of the spanning tree: each child is re-hung under an alive
// neighbour other than u with a smaller key (dead nodes carry MaxInt32,
// so the key comparison is the liveness test too). False means
// undecided; the children already moved stay moved — the tree is valid
// either way. O(deg(u) + Σ deg(child)).
//
//dmcs:hotpath
func (p *ncaPeel) makeLeaf(u graph.Node) bool {
	if p.nchild[u] == 0 {
		return true
	}
	c := p.s.sub
	parent, key := p.parent, p.key
	for _, ch := range c.Neighbors(u) {
		if parent[ch] != u {
			continue
		}
		kc := key[ch]
		moved := false
		for _, w := range c.Neighbors(ch) {
			if w != u && key[w] < kc {
				parent[ch] = w
				p.nchild[w]++
				moved = true
				break
			}
		}
		if !moved {
			return false
		}
		if p.nchild[u]--; p.nchild[u] == 0 {
			return true
		}
	}
	return false // unreachable: nchild[u] counts exactly the children seen above
}

// remove deletes u from the alive set and the tables, and refreshes
// k_{v,S} of u's alive neighbours by the ascending WeightedDegreeIn
// rescan — the term order of every k this package has ever computed, so
// the table is bit-identical to a from-scratch one.
//
//dmcs:hotpath
func (p *ncaPeel) remove(u graph.Node) {
	s := p.s
	s.remove(u)
	p.skip[u] = true
	p.parent[u] = -1
	p.key[u] = math.MaxInt32
	for _, w := range s.sub.Neighbors(u) {
		if s.v.Alive(w) {
			p.k[w] = s.v.WeightedDegreeIn(w)
		}
	}
}

// rebuildTree replaces the spanning tree by the BFS tree of the alive set
// from root; key is the BFS discovery order. queue is empty scratch with
// room for every node of the sub.
//
//dmcs:hotpath
func (p *ncaPeel) rebuildTree(queue []graph.Node) {
	s := p.s
	c := s.sub
	n := c.NumNodes()
	parent, nchild, key := p.parent, p.nchild, p.key
	const unseen = -1
	for u := 0; u < n; u++ {
		nchild[u] = 0
		if s.v.Alive(graph.Node(u)) {
			key[u] = unseen
		} else {
			key[u] = math.MaxInt32
		}
	}
	queue = append(queue, p.root)
	parent[p.root] = -1
	key[p.root] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range c.Neighbors(u) {
			if key[w] == unseen {
				key[w] = int32(len(queue))
				parent[w] = u
				nchild[u]++
				queue = append(queue, w)
			}
		}
	}
}

// newID maps a local id of the sub that ReextractSub just compacted to its
// id in the new one through the arena's epoch marks: -1 stays -1, and a
// dead node is unmarked, which is what drops a stale witness.
func (p *ncaPeel) newID(old graph.Node) graph.Node {
	if old >= 0 {
		if id, ok := p.s.a.g.Marked(old); ok {
			return id
		}
	}
	return -1
}

// recompact rebuilds the sub-CSR over the survivors and remaps every
// per-node table into the new local ids. New ids never exceed old ones
// and both ascend, so the tables compact in place, front to back.
func (p *ncaPeel) recompact() {
	s := p.s
	a := s.a
	prev := s.sub
	members := a.g.Nodes(0, s.v.NumAlive())[:0]
	for ui := 0; ui < prev.NumNodes(); ui++ {
		if s.v.Alive(graph.Node(ui)) {
			members = append(members, graph.Node(ui))
		}
	}
	next := a.g.ReextractSub(p.slot, prev, members)
	// ReextractSub recorded members in prev's id space; rewrite them into
	// source ids so GlobalOf keeps meaning the same thing across
	// generations.
	globals := next.Globals()
	for i, old := range members {
		globals[i] = prev.GlobalOf(old)
		p.dist[i] = p.dist[old]
		p.skip[i] = p.skip[old]
		p.parent[i] = p.newID(p.parent[old])
		p.nchild[i] = p.nchild[old]
		p.key[i] = p.key[old]
		p.witness[i] = p.newID(p.witness[old])
		p.k[i] = p.k[old]
	}
	n := len(members)
	p.dist, p.skip, p.parent, p.nchild = p.dist[:n], p.skip[:n], p.parent[:n], p.nchild[:n]
	p.key, p.witness, p.k = p.key[:n], p.witness[:n], p.k[:n]
	p.root = p.newID(p.root)
	// Carry the incrementally maintained aggregates — fresh accumulation
	// would change float summation order.
	s.v = a.g.ViewAllWith(p.slot, next, s.v.InternalWeight(), s.v.NodeWeightSum())
	s.sub, s.wdeg = next, next.WeightedDegrees()
	p.slot = 1 - p.slot
}
