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
// The textbook loop scans every candidate and runs a Hopcroft–Tarjan DFS
// before every removal — O(|V|(|V|+|E|)) overall. This loop does neither;
// a removal costs about the removed node's neighbourhood:
//
//   - Pick. On an unweighted graph, for one degree d both
//     Λ = −4·w_G·k + 2·d_S·d − d² and Θ = d/k fall strictly as k rises,
//     and with integer k and d that holds exactly in float64. So a degree
//     class's best node is its minimum under (k ascending, distance
//     descending, id ascending), which is one int64 order key per
//     candidate: k<<32 | rank, rank being the node's static place under
//     (distance descending, id ascending), counting-sorted once. Each
//     distinct degree keeps an indexed min-heap on that key, and a dense
//     table holds every class's head key and degree. A pick scores one
//     head per class — at most about 2√m of them — from those two flat
//     arrays with LambdaF / ThetaF on the same float operands as the
//     textbook loop, and breaks score ties on the rank. Weighted graphs
//     scan every candidate instead, since float rounding can tie
//     distinct k. The scan walks a dense list of the alive non-query
//     nodes, in any order, from which remove swap-deletes; beats is a
//     total order, so the list's order cannot change the pick.
//   - Removable. parent, key and the child lists hold a spanning tree of
//     the alive set rooted at a query node, with key[parent[c]] < key[c].
//     A leaf of a spanning tree is not an articulation point: the rest of
//     the tree still spans the rest of the alive set. makeLeaf re-hangs
//     each child c of the pick u under an alive neighbour w != u with
//     key[w] < key[c] (w is no descendant of c, whose keys are larger, so
//     no cycle forms).
//     When some child finds none, rehang re-hangs u's subtree S: a member
//     hangs under an alive neighbour outside S ∪ {u}, or under a member
//     re-hung before it, with a fresh key above every existing one. If
//     that reaches all of S, u is a leaf.
//   - Articulation. Otherwise a member x left over reaches the root only
//     through u: its component of alive − u lies inside S. Removals only
//     shrink the components of alive − u and the root is a query node,
//     never removed, so u stays an articulation point while x is alive.
//     witness[u] = x; the scan skips u with one load, and the index parks
//     u on x's list and re-admits it when x is removed.
//
// The pick is the maximum over a superset of the textbook candidates
// (only parked or witnessed nodes are left out, and each is an
// articulation point). When it is certified removable it is therefore the
// textbook winner, and is removed; when it is not, it is set aside and the
// pick runs again. The pick itself can differ from a fresh full scan's — a
// node parked under an older witness stays parked — but the removed node
// cannot, so communities, scores, iteration counts and removal orders are
// bit-identical to the textbook loop (FuzzNCACertificates checks every
// step; the reference's flood-per-candidate loop checks whole peels).
//
// The loop runs entirely in the compact local id space of sub, whose ids
// are order-isomorphic to source ids, so tie-breaks on id match the
// textbook loop's.

// ncaPeel is the state of one NCA / NCA-DR peel. It lives in the Arena:
// the per-node tables keep their capacity from query to query and are
// grown by newNCAPeel only, so arenas that never serve NCA never pay for
// them. All tables are indexed by sub's local ids.
type ncaPeel struct {
	s     *peelState
	nq    int        // |Q| (distinct): the peel stops when only the query is left
	theta bool       // pick by Θ (NCA-DR) instead of Λ (NCA)
	root  graph.Node // spanning-tree root: a query node

	dist    []int32      // hops from the nearest query node (tie-break)
	skip    []bool       // query or dead: never a candidate
	parent  []graph.Node // spanning tree of the alive set; -1 at root and dead nodes
	first   []graph.Node // first tree child, or -1
	sib     []graph.Node // next child of the same parent, or -1
	prev    []graph.Node // previous child of the same parent, or -1
	key     []int32      // tree key, below every child's; MaxInt32 at dead nodes
	nextKey int32        // above every key in use
	witness []graph.Node // articulation certificate, or -1
	k       []float64    // k_{v,S} of alive nodes (the alive degree when unweighted)

	// rehang scratch: u's subtree, and stamps marking its members in the
	// current call (gen) and those already re-hung (gen+1)
	subtree []graph.Node
	stamp   []int32
	gen     int32

	// The candidate list, on weighted graphs only: every alive non-query
	// node once, in any order, and the index of each in it.
	cand []graph.Node
	cpos []int32

	// The degree-class index, on unweighted graphs only. Class c's heap
	// is heap[cOff[c] : cOff[c]+cLen[c]], a min-heap on ord; a candidate
	// is in its class's heap (pos >= 0) or parked on the list of its live
	// witness, which starts at parked[w] and follows next.
	indexed bool
	nc      int          // number of classes
	byDeg   []int32      // class of each degree, or count of each distance (setup scratch)
	ord     []int64      // order key of each candidate: k<<32 | rank
	head    []int64      // head key of each class, or -1 when it is empty
	cdeg    []float64    // degree of each class
	cls     []int32      // class of each candidate
	cOff    []int32      // start of each class's heap segment
	cLen    []int32      // size of each class's heap
	heap    []graph.Node // every class's heap, segment by segment
	pos     []int32      // index into heap, or -1
	parked  []graph.Node // first node parked under each node, or -1
	next    []graph.Node // next node on the same park list, or -1

	// work counters: adjacency entries read by makeLeaf, rehang and
	// remove, scores evaluated by a pick, and heap entries moved by up
	// and down
	adjReads, scored, sifts int
}

// newNCAPeel sets up the peel over sub with every node alive.
func newNCAPeel(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, opts Options, theta bool) *ncaPeel {
	n := sub.NumNodes()
	// minimum shortest-path distance from the query nodes, for tie-breaks
	dist := sub.MultiSourceBFSInto(q, a.g.Dist(0, n), a.g.Queue(n))
	p := &a.nca
	p.s = newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
	p.nq, p.theta, p.root = 0, theta, q[0]
	p.dist = dist
	p.skip = a.g.Marks(0, n)
	for _, u := range q { // a repeated query node must not raise the stop size
		if !p.skip[u] {
			p.skip[u] = true
			p.nq++
		}
	}
	p.parent = growNodeSlice(p.parent, n)
	p.first = growNodeSlice(p.first, n)
	p.sib = growNodeSlice(p.sib, n)
	p.prev = growNodeSlice(p.prev, n)
	p.key = growInt32Slice(p.key, n)
	p.witness = growNodeSlice(p.witness, n)
	for i := range p.witness {
		p.witness[i] = -1
	}
	p.k = growFloat64Slice(p.k, n)
	for u := range p.k {
		p.k[u] = p.s.v.WeightedDegreeIn(graph.Node(u))
	}
	p.subtree = growNodeSlice(p.subtree, n)
	p.stamp = growInt32Slice(p.stamp, n)
	clear(p.stamp)
	p.gen = 0
	p.adjReads, p.scored, p.sifts = 0, 0, 0
	p.rebuildTree(a.g.Queue(n))
	if p.indexed = !sub.Weighted(); p.indexed {
		maxDeg, maxDist := 0, int32(0)
		for u, d := range p.s.wdeg {
			if !p.skip[u] {
				maxDeg = max(maxDeg, int(d))
			}
			maxDist = max(maxDist, dist[u])
		}
		p.ord = growInt64Slice(p.ord, n)
		p.head = growInt64Slice(p.head, n)
		p.cdeg = growFloat64Slice(p.cdeg, n)
		p.cls = growInt32Slice(p.cls, n)
		p.cOff = growInt32Slice(p.cOff, n+1)
		p.cLen = growInt32Slice(p.cLen, n)
		p.heap = growNodeSlice(p.heap, n)
		p.pos = growInt32Slice(p.pos, n)
		p.parked = growNodeSlice(p.parked, n)
		p.next = growNodeSlice(p.next, n)
		p.byDeg = growInt32Slice(p.byDeg, int(maxDist)+1)
		p.rankByDist()
		p.byDeg = growInt32Slice(p.byDeg, maxDeg+1)
		p.buildIndex()
	} else {
		p.cand = growNodeSlice(p.cand, n)[:0]
		p.cpos = growInt32Slice(p.cpos, n)
		for u, sk := range p.skip {
			if !sk {
				p.cpos[u] = int32(len(p.cand))
				p.cand = append(p.cand, graph.Node(u))
			}
		}
	}
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
	for {
		var best graph.Node
		if p.indexed {
			best = p.argmax()
		} else {
			best = p.scan()
		}
		if best < 0 {
			return false // every candidate is an articulation point
		}
		if p.makeLeaf(best) || p.rehang(best, s.a.g.Queue(s.sub.NumNodes())) {
			p.remove(best)
			break
		}
		if p.indexed { // rehang named best's witness: park it there
			p.pop(best)
			p.park(best, p.witness[best])
		}
		if s.expired() {
			return false
		}
	}
	return true
}

// beats reports whether candidate u, scoring sc, ranks above best,
// scoring bestScore, under the pick order: pick score, then distance
// from the query (farther removed first), then smaller id.
func (p *ncaPeel) beats(u graph.Node, sc float64, best graph.Node, bestScore float64) bool {
	if sc != bestScore {
		return sc > bestScore
	}
	return best >= 0 && (p.dist[u] > p.dist[best] || p.dist[u] == p.dist[best] && u < best)
}

// pickScore is u's Θ (NCA-DR) or Λ (NCA) at the alive node weight sum dS.
func (p *ncaPeel) pickScore(u graph.Node, dS float64) float64 {
	if p.theta {
		return modularity.ThetaF(p.s.wdeg[u], p.k[u])
	}
	return modularity.LambdaF(p.s.wG, dS, p.k[u], p.s.wdeg[u])
}

// scan returns the best candidate under the pick order, or -1. A
// candidate is a node of the candidate list (alive, non-query) without a
// live articulation witness.
//
//dmcs:hotpath
func (p *ncaPeel) scan() graph.Node {
	v, dS := p.s.v, p.s.v.NodeWeightSum()
	witness := p.witness
	var best graph.Node = -1
	bestScore := math.Inf(-1)
	scored := 0
	for _, u := range p.cand {
		if w := witness[u]; w >= 0 && v.Alive(w) {
			continue
		}
		scored++
		if sc := p.pickScore(u, dS); p.beats(u, sc, best, bestScore) {
			best, bestScore = u, sc
		}
	}
	p.scored += scored
	return best
}

// rankMask keeps the rank half of an order key.
const rankMask = 1<<32 - 1

// argmax is scan over the degree-class index: the best class head under
// the pick order, or -1 when every class is empty. It scores from the
// head table only: a head's k is its key's upper half, its degree the
// class's, and its rank, the lower half, orders it against an equal score
// exactly as beats does.
//
//dmcs:hotpath
func (p *ncaPeel) argmax() graph.Node {
	wG, dS := p.s.wG, p.s.v.NodeWeightSum()
	head, cdeg := p.head[:p.nc], p.cdeg[:p.nc]
	best := -1
	var bestRank int64
	bestScore := math.Inf(-1)
	scored := 0
	for c, h := range head {
		if h < 0 {
			continue
		}
		scored++
		k := float64(h >> 32)
		var sc float64
		if p.theta {
			sc = modularity.ThetaF(cdeg[c], k)
		} else {
			sc = modularity.LambdaF(wG, dS, k, cdeg[c])
		}
		if sc > bestScore || sc == bestScore && best >= 0 && h&rankMask < bestRank {
			best, bestRank, bestScore = c, h&rankMask, sc
		}
	}
	p.scored += scored
	if best < 0 {
		return -1
	}
	return p.heap[p.cOff[best]]
}

// makeLeaf certifies that u is not an articulation point by making it a
// leaf of the spanning tree: each child is re-hung under an alive
// neighbour other than u with a smaller key (dead nodes carry MaxInt32,
// so the key comparison is the liveness test too). False means some
// child found none and u is undecided; the children that moved stay
// moved — the tree is valid either way, and rehang has less to re-hang.
// O(Σ deg(child)).
//
//dmcs:hotpath
func (p *ncaPeel) makeLeaf(u graph.Node) bool {
	c := p.s.sub
	key := p.key
	for ch := p.first[u]; ch >= 0; {
		next := p.sib[ch]
		kc := key[ch]
		adj := c.Neighbors(ch)
		read := len(adj)
		for i, w := range adj {
			if w != u && key[w] < kc {
				read = i + 1
				p.hang(ch, w)
				break
			}
		}
		p.adjReads += read
		ch = next
	}
	return p.first[u] < 0
}

// hang moves x under w in the spanning tree.
func (p *ncaPeel) hang(x, w graph.Node) {
	p.unlink(x)
	p.link(x, w)
}

// unlink takes x out of its parent's child list.
func (p *ncaPeel) unlink(x graph.Node) {
	pv, nx := p.prev[x], p.sib[x]
	if pv >= 0 {
		p.sib[pv] = nx
	} else {
		p.first[p.parent[x]] = nx
	}
	if nx >= 0 {
		p.prev[nx] = pv
	}
}

// link makes x, out of every child list, w's first child.
func (p *ncaPeel) link(x, w graph.Node) {
	p.parent[x] = w
	p.prev[x], p.sib[x] = -1, p.first[w]
	if f := p.first[w]; f >= 0 {
		p.prev[f] = x
	}
	p.first[w] = x
}

// rehang is makeLeaf's fallback. It re-hangs each member of u's subtree
// S, parents before children, with a fresh key above every key in use:
// under its parent if that was re-hung, else under its first alive
// neighbour that lies outside S ∪ {u} or was re-hung already. A member
// that finds none waits; once a waiting member finds one, it floods the
// waiting members it connects to. True means all of S was re-hung, so u
// is now a leaf. False means u is an articulation point: witness[u] is a
// member left waiting, and no path leads from it out of S but through u.
// queue is empty scratch with room for every node of the sub. O(edges of
// S) at worst; a member whose parent was re-hung reads no adjacency.
//
//dmcs:hotpath
func (p *ncaPeel) rehang(u graph.Node, queue []graph.Node) bool {
	c := p.s.sub
	n := c.NumNodes()
	if p.nextKey > math.MaxInt32-int32(n) { // fresh keys must stay below the dead-node sentinel
		p.rebuildTree(queue)
	}
	if p.gen > math.MaxInt32-2 {
		clear(p.stamp)
		p.gen = 0
	}
	p.gen += 2
	in := p.gen
	stamp := p.stamp
	subtree := append(p.subtree[:0], u)
	for i := 0; i < len(subtree); i++ {
		for ch := p.first[subtree[i]]; ch >= 0; ch = p.sib[ch] {
			stamp[ch] = in
			subtree = append(subtree, ch)
		}
	}
	subtree = subtree[1:]
	// Parents before children: a member whose parent was re-hung keeps it,
	// any other hangs under its first alive neighbour outside S ∪ {u} or
	// re-hung already; the rest wait.
	size, reached := len(subtree), 0
	waiting := subtree[:0]
	for _, x := range subtree {
		if stamp[p.parent[x]] == in+1 {
			p.rekey(x)
			reached++
		} else if p.hangFound(u, x) {
			reached++
		} else {
			waiting = append(waiting, x)
		}
	}
	// A waiting member that now finds such a neighbour floods the waiting
	// members it connects to; the flood reads each one's adjacency once.
	for _, z := range waiting {
		if stamp[z] != in || !p.hangFound(u, z) {
			continue
		}
		queue = append(queue[:0], z)
		for head := 0; head < len(queue); head++ {
			y := queue[head]
			adj := c.Neighbors(y)
			p.adjReads += len(adj)
			for _, w := range adj {
				if stamp[w] == in {
					p.hangFresh(w, y)
					queue = append(queue, w)
				}
			}
		}
		reached += len(queue)
	}
	if reached < size {
		for _, x := range waiting {
			if stamp[x] == in {
				p.witness[u] = x
				return false
			}
		}
	}
	return true
}

// hangFound hangs x, a member of rehang's subtree of u, under its first
// alive neighbour that is reached or lies outside the subtree and u, and
// reports whether it found one.
func (p *ncaPeel) hangFound(u, x graph.Node) bool {
	in := p.gen
	adj := p.s.sub.Neighbors(x)
	for i, w := range adj {
		if st := p.stamp[w]; st == in+1 || st < in && w != u && p.s.v.Alive(w) {
			p.adjReads += i + 1
			p.hangFresh(x, w)
			return true
		}
	}
	p.adjReads += len(adj)
	return false
}

// hangFresh moves x, a member of rehang's subtree, under w and rekeys it.
func (p *ncaPeel) hangFresh(x, w graph.Node) {
	p.hang(x, w)
	p.rekey(x)
}

// rekey gives x, a member of rehang's subtree, a key above every key in
// use, and stamps it re-hung.
func (p *ncaPeel) rekey(x graph.Node) {
	p.key[x] = p.nextKey
	p.nextKey++
	p.stamp[x] = p.gen + 1
}

// remove deletes u, a leaf of the spanning tree and the pick (the head of
// its class when indexed), from the alive set and the tables (the
// candidate list when not). It refreshes
// k_{v,S} of u's alive neighbours by the ascending WeightedDegreeIn rescan
// — the term order of every k this package has ever computed, so the
// table is bit-identical to a from-scratch one — and, when indexed, the
// order key of each neighbour that is a candidate, parked or not, sifting
// it up its heap if it is in one; then it re-admits the nodes parked
// under u.
//
//dmcs:hotpath
func (p *ncaPeel) remove(u graph.Node) {
	s := p.s
	p.unlink(u)
	if p.indexed {
		p.pop(u)
	} else {
		last, i := p.cand[len(p.cand)-1], p.cpos[u]
		p.cand[i], p.cpos[last] = last, i
		p.cand = p.cand[:len(p.cand)-1]
	}
	s.remove(u)
	p.skip[u] = true
	p.parent[u] = -1
	p.key[u] = math.MaxInt32
	adj := s.sub.Neighbors(u)
	p.adjReads += len(adj)
	for _, w := range adj {
		if s.v.Alive(w) {
			p.k[w] = s.v.WeightedDegreeIn(w)
			if p.indexed && !p.skip[w] {
				p.ord[w] = int64(p.k[w])<<32 | p.ord[w]&rankMask
				if p.pos[w] >= 0 {
					p.up(w)
				}
			}
		}
	}
	if p.indexed {
		for x := p.parked[u]; x >= 0; x = p.next[x] {
			p.push(x)
		}
		p.parked[u] = -1
	}
}

// up sifts u towards the head of its class's heap, and records its key
// as the class's head key if it gets there. The heaps order by ord: k
// ascending, then rank — the pick order, since for one degree the pick
// score falls strictly as k rises.
func (p *ncaPeel) up(u graph.Node) {
	heap, pos, ord := p.heap, p.pos, p.ord
	c := p.cls[u]
	base, i, key := p.cOff[c], p.pos[u], ord[u]
	steps := 0
	for i > base {
		j := base + (i-base-1)/2
		w := heap[j]
		if key >= ord[w] {
			break
		}
		heap[i], pos[w] = w, i
		i = j
		steps++
	}
	p.sifts += steps
	heap[i], pos[u] = u, i
	if i == base {
		p.head[c] = key
	}
}

// down sifts u away from the head of its class's heap.
func (p *ncaPeel) down(u graph.Node) {
	heap, pos, ord := p.heap, p.pos, p.ord
	c := p.cls[u]
	base, end, i, key := p.cOff[c], p.cOff[c]+p.cLen[c], p.pos[u], ord[u]
	steps := 0
	for {
		j := base + 2*(i-base) + 1
		if j >= end {
			break
		}
		if j+1 < end && ord[heap[j+1]] < ord[heap[j]] {
			j++
		}
		w := heap[j]
		if ord[w] >= key {
			break
		}
		heap[i], pos[w] = w, i
		i = j
		steps++
	}
	p.sifts += steps
	heap[i], pos[u] = u, i
}

// push adds u to its class's heap.
func (p *ncaPeel) push(u graph.Node) {
	c := p.cls[u]
	p.pos[u] = p.cOff[c] + p.cLen[c]
	p.cLen[c]++
	p.up(u)
}

// pop takes u, the head of its class's heap, out of the heap, and
// records the class's new head key.
func (p *ncaPeel) pop(u graph.Node) {
	c := p.cls[u]
	p.cLen[c]--
	p.pos[u] = -1
	if p.cLen[c] == 0 {
		p.head[c] = -1
		return
	}
	base := p.cOff[c]
	last := p.heap[base+p.cLen[c]]
	p.pos[last] = base
	p.down(last)
	p.head[c] = p.ord[p.heap[base]]
}

// park files u, out of every heap, under its live witness w.
func (p *ncaPeel) park(u, w graph.Node) {
	p.next[u] = p.parked[w]
	p.parked[w] = u
}

// rankByDist gives every node its order key k<<32 | rank, rank being its
// place under (distance descending, id ascending), by one counting sort
// over dist; byDeg, sized by newNCAPeel for the largest distance, counts
// the nodes at each distance.
//
//dmcs:hotpath
func (p *ncaPeel) rankByDist() {
	n := p.s.sub.NumNodes()
	dist, cnt := p.dist[:n], p.byDeg
	clear(cnt)
	for _, d := range dist {
		cnt[d]++
	}
	var start int32
	for d := len(cnt) - 1; d >= 0; d-- {
		cnt[d], start = start, start+cnt[d]
	}
	for u, d := range dist {
		p.ord[u] = int64(p.k[u])<<32 | int64(cnt[d])
		cnt[d]++
	}
}

// buildIndex files every candidate into the heap of its degree class.
// Classes are numbered in ascending degree; byDeg, sized by newNCAPeel
// for the largest candidate degree, maps a degree to its class.
//
//dmcs:hotpath
func (p *ncaPeel) buildIndex() {
	n := p.s.sub.NumNodes()
	skip, wdeg := p.skip[:n], p.s.wdeg[:n]
	clear(p.byDeg)
	for u := range skip {
		if !skip[u] {
			p.byDeg[int(wdeg[u])]++
		}
	}
	p.nc = 0
	var off int32
	for d, cnt := range p.byDeg {
		if cnt > 0 {
			p.cOff[p.nc], p.cLen[p.nc] = off, 0
			p.head[p.nc], p.cdeg[p.nc] = -1, float64(d)
			p.byDeg[d] = int32(p.nc)
			off += cnt
			p.nc++
		}
	}
	p.cOff[p.nc] = off
	for ui := range skip {
		p.pos[ui], p.parked[ui] = -1, -1
	}
	for ui := range skip {
		if !skip[ui] {
			u := graph.Node(ui)
			p.cls[u] = p.byDeg[int(wdeg[u])]
			p.push(u)
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
	key := p.key
	const unseen = -1
	for u := 0; u < n; u++ {
		p.first[u] = -1
		if s.v.Alive(graph.Node(u)) {
			key[u] = unseen
		} else {
			key[u] = math.MaxInt32
		}
	}
	queue = append(queue, p.root)
	p.parent[p.root] = -1
	key[p.root] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range c.Neighbors(u) {
			if key[w] == unseen {
				key[w] = int32(len(queue))
				p.link(w, u)
				queue = append(queue, w)
			}
		}
	}
	p.nextKey = int32(len(queue))
}
