package graph

import "unsafe"

// i32at is the unchecked load of the articulation hot loop. Every index
// is in range by construction (CSR targets hold valid node ids < n;
// cursors stay below the row end, which is bounded by len(targets)), so
// the compiler's per-entry bounds checks are pure overhead (~25% of the
// sweep, measured). Touch it only with indices whose validity follows
// from the packed-array invariants.
func i32at(base *int32, i int32) *int32 {
	return (*int32)(unsafe.Add(unsafe.Pointer(base), uintptr(uint32(i))*4))
}

// CSRView is a mutable "alive set" over an immutable CSR snapshot — the
// one peeling substrate in this repository: the DMCS searches, the kcore /
// kecc / wu2015 baselines and the frozen reference peel all remove nodes
// from it. It tracks alive nodes and alive degrees in O(deg) per Remove
// and maintains the two weighted aggregates the modularity objectives
// need — the alive internal edge weight w_C and the alive node-weight sum
// d_S — straight from the CSR's packed weights slice and cached
// node-weight table. On unweighted snapshots every edge counts 1; on
// weighted snapshots the packed parallel weights array is read in
// neighbor order, and that accumulation order is part of the contract:
// scores are compared bit for bit across implementations
// (TestDifferentialLegacyVsCSR), so it must not change.
type CSRView struct {
	c      *flatCSR
	alive  []bool
	deg    []int32 // degree restricted to alive nodes
	nAlive int
	mAlive int
	wAlive float64 // alive internal edge weight w_C (mAlive when unweighted)
	dAlive float64 // sum over alive nodes of cached node weight (d_S)
}

// NewCSRViewOf creates a view in which exactly the nodes of set are alive.
// Duplicate nodes in set are counted once. The weighted aggregates are
// accumulated in set (first-occurrence) order over sorted adjacency, the
// same order the peeling algorithms have always used, so downstream float
// comparisons are reproducible.
func NewCSRViewOf(snap *CSR, set []Node) *CSRView {
	c := snap.flatten()
	n := c.NumNodes()
	v := &CSRView{
		c:     c,
		alive: make([]bool, n),
		deg:   make([]int32, n),
	}
	members := make([]Node, 0, len(set))
	for _, u := range set {
		if !v.alive[u] {
			v.alive[u] = true
			v.nAlive++
			members = append(members, u)
		}
	}
	for _, u := range members {
		v.dAlive += c.wdeg[u]
		adj := c.Neighbors(u)
		if c.weights != nil {
			ws := c.NeighborWeights(u)
			for i, w := range adj {
				if v.alive[w] {
					v.deg[u]++
					if u < w {
						v.mAlive++
						v.wAlive += ws[i]
					}
				}
			}
		} else {
			for _, w := range adj {
				if v.alive[w] {
					v.deg[u]++
					if u < w {
						v.mAlive++
					}
				}
			}
		}
	}
	if c.weights == nil {
		v.wAlive = float64(v.mAlive)
	}
	return v
}

// NumNodes returns the node count of the underlying arrays, alive or not.
func (v *CSRView) NumNodes() int { return v.c.NumNodes() }

// Alive reports whether node u is in the view.
func (v *CSRView) Alive(u Node) bool { return v.alive[u] }

// NumAlive returns the number of alive nodes.
func (v *CSRView) NumAlive() int { return v.nAlive }

// NumAliveEdges returns the number of edges with both endpoints alive.
func (v *CSRView) NumAliveEdges() int { return v.mAlive }

// DegreeIn returns u's degree restricted to alive neighbors (0 for dead
// nodes).
func (v *CSRView) DegreeIn(u Node) int { return int(v.deg[u]) }

// WeightedDegreeIn returns k_{u,S}: the weighted degree of u into the
// alive set (Definitions 5–7). It is computed fresh in O(deg) from the
// packed weights so repeated calls after interleaved removals return
// exactly the neighbor-order sum, never a drifted incremental value.
func (v *CSRView) WeightedDegreeIn(u Node) float64 {
	if v.c.weights == nil {
		return float64(v.deg[u])
	}
	adj := v.c.Neighbors(u)
	ws := v.c.NeighborWeights(u)
	var k float64
	for i, w := range adj {
		if v.alive[w] {
			k += ws[i]
		}
	}
	return k
}

// InternalWeight returns w_C, the total weight of edges with both
// endpoints alive (NumAliveEdges when unweighted). It is maintained
// incrementally across Remove.
func (v *CSRView) InternalWeight() float64 { return v.wAlive }

// NodeWeightSum returns d_S, the sum of cached node weights (weighted
// degrees in the full graph) over the alive set.
func (v *CSRView) NodeWeightSum() float64 { return v.dAlive }

// Remove deletes u from the view, updating neighbor degrees and the
// weighted aggregates in O(deg). Removing a dead node is a no-op.
func (v *CSRView) Remove(u Node) {
	if !v.alive[u] {
		return
	}
	// w_C loses exactly k_{u,S}, summed in neighbor order before any
	// flag flips (the same subtraction the peeling recurrences perform).
	v.wAlive -= v.WeightedDegreeIn(u)
	v.dAlive -= v.c.wdeg[u]
	v.alive[u] = false
	v.nAlive--
	for _, w := range v.c.Neighbors(u) {
		if v.alive[w] {
			v.deg[w]--
			v.mAlive--
		}
	}
	v.deg[u] = 0
}

// LiveNodes returns the alive node set in ascending order.
func (v *CSRView) LiveNodes() []Node {
	out := make([]Node, 0, v.nAlive)
	for u := range v.alive {
		if v.alive[u] {
			out = append(out, Node(u))
		}
	}
	return out
}

// MultiSourceBFS computes, for every node, the minimum unweighted distance
// to any alive source, restricted to alive nodes. Dead nodes, dead
// sources, and unreachable nodes get INF.
func (v *CSRView) MultiSourceBFS(sources []Node) []int32 {
	n := v.c.NumNodes()
	return v.MultiSourceBFSInto(sources, make([]int32, n), make([]Node, 0, n))
}

// MultiSourceBFSInto is MultiSourceBFS writing into caller-owned scratch;
// dist needs length >= NumNodes, queue capacity >= NumNodes. It runs the
// CSR's BFS kernel with the dead nodes folded into the initial dist (the
// way ArtScratch.reset folds them into disc), so the kernel's inner loops
// read dist alone and never the alive flags.
func (v *CSRView) MultiSourceBFSInto(sources []Node, dist []int32, queue []Node) []int32 {
	const dead = -1 // any value that is neither INF nor a level
	c := v.c
	dist = dist[:c.NumNodes()]
	entries := 0
	for u := range dist {
		if v.alive[u] {
			dist[u] = INF
			entries += int(c.offsets[u+1] - c.offsets[u])
		} else {
			dist[u] = dead
		}
	}
	c.levelBFS(sources, dist, queue, v.nAlive, entries)
	if v.nAlive < len(dist) {
		for u := range dist {
			if dist[u] == dead {
				dist[u] = INF
			}
		}
	}
	return dist
}

// ArtScratch is the reusable backing memory of one articulation-point
// DFS: per-node discovery/low-link/parent/cursor tables plus the explicit
// DFS stack. Arenas keep one ArtScratch and pay an O(alive)
// re-initialization per sweep instead of six fresh allocations.
type ArtScratch struct {
	isArt  []bool
	disc   []int32 // discovery time; 0 = unvisited, -1 = dead
	low    []int32 // low-link value
	parent []Node  // DFS-tree parent
	iter   []int32 // per-node absolute adjacency cursor
	stack  []Node
}

// reset sizes every table for n nodes and restores the pre-DFS state;
// the adjacency cursors start at each node's absolute offset into the
// packed targets array. Deadness is folded into disc (-1) so the hot
// edge loop pays one random read per target instead of two. low and
// parent need no reset — both are written at discovery before any read —
// and the reset loop is the only whole-table pass of a sweep.
func (s *ArtScratch) reset(c *flatCSR, alive []bool, n int) {
	s.isArt = growBool(s.isArt, n)
	s.disc = growInt32(s.disc, n)
	s.low = growInt32(s.low, n)
	s.parent = growNodes(s.parent, n)
	s.iter = growInt32(s.iter, n)
	for i := 0; i < n; i++ {
		s.isArt[i] = false
		if alive[i] {
			s.disc[i] = 0
		} else {
			s.disc[i] = -1
		}
		s.iter[i] = c.offsets[i]
	}
	if cap(s.stack) < 64 {
		s.stack = make([]Node, 0, 64)
	}
}

// ArticulationPoints returns a boolean mask over the alive nodes: mask[u]
// is true when removing u disconnects the alive subgraph. It is the
// Hopcroft–Tarjan DFS-tree low-link algorithm (the paper's Section
// 5.2.1), implemented iteratively so deep graphs cannot overflow the
// goroutine stack, in O(|V|+|E|) over the alive subgraph. Dead nodes keep
// mask[u] = false.
func (v *CSRView) ArticulationPoints() []bool {
	return v.ArticulationPointsInto(new(ArtScratch))
}

// ArticulationPointsInto is ArticulationPoints running on caller-owned
// scratch. The returned mask aliases s.isArt and is valid until the next
// sweep on the same scratch.
func (v *CSRView) ArticulationPointsInto(s *ArtScratch) []bool {
	return v.articulation(s, 0, nil)
}

// ArticulationWitnessesInto is ArticulationPointsInto with the DFS of
// root's component rooted at root, and a certificate per articulation
// point: witness[p] is a DFS child w of p with low[w] >= disc[p], i.e. a
// node every path from which to root passes through p; witness[u] is -1
// for every other node (DFS roots included — the root rule leaves no
// single child to name). Removing nodes only shrinks the components of
// alive − p, so while p, witness[p] and root all stay alive, p is still
// an articulation point: NCA skips such nodes without a new sweep.
func (v *CSRView) ArticulationWitnessesInto(s *ArtScratch, root Node, witness []Node) []bool {
	for i := range witness {
		witness[i] = -1
	}
	return v.articulation(s, root, witness)
}

// articulation runs the DFS from first (when alive), then from every
// still-unvisited alive node in ascending order; witness may be nil.
func (v *CSRView) articulation(s *ArtScratch, first Node, witness []Node) []bool {
	c := v.c
	n := c.NumNodes()
	s.reset(c, v.alive, n)
	offsets, targets := c.offsets, c.targets
	isArt := s.isArt
	disc, low := s.disc, s.low
	parent := s.parent
	iter := s.iter
	// Unchecked base pointers for the per-entry loads/stores (see i32at).
	targetsP := unsafe.SliceData(targets)
	discP := unsafe.SliceData(disc)
	lowP := unsafe.SliceData(low)
	parentP := unsafe.SliceData(parent)
	var timer int32 = 1
	stack := s.stack[:0]
	defer func() { s.stack = stack[:0] }() // keep a grown stack

	for ri := -1; ri < n; ri++ {
		root := Node(ri)
		if ri < 0 {
			root = first
		}
		if int(root) >= n || disc[root] != 0 { // dead (-1) or already visited
			continue
		}
		disc[root], low[root] = timer, timer
		parent[root] = -1
		rootChildren := 0
		timer++
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			end := offsets[u+1]
			cur := iter[u]
			pu := parent[u]
			lu := low[u] // in a register while u is the stack top
			advanced := false
			for cur < end {
				w := *i32at(targetsP, cur)
				dw := *i32at(discP, w) // the one random read of the edge loop
				cur++
				if dw > 0 { // visited alive neighbor: the common case
					if w != pu && dw < lu {
						lu = dw
					}
					continue
				}
				if dw < 0 { // dead neighbor
					continue
				}
				// tree edge: discover w
				*i32at(parentP, w) = u
				if u == root {
					rootChildren++
				}
				*i32at(discP, w) = timer
				*i32at(lowP, w) = timer
				timer++
				stack = append(stack, w)
				advanced = true
				break
			}
			iter[u] = cur
			low[u] = lu
			if advanced {
				continue
			}
			stack = stack[:len(stack)-1]
			if pu >= 0 {
				if lu < low[pu] {
					low[pu] = lu
				}
				if parent[pu] >= 0 && lu >= disc[pu] {
					isArt[pu] = true
					if witness != nil {
						witness[pu] = u
					}
				}
			}
		}
		if rootChildren >= 2 {
			isArt[root] = true
		}
	}
	return isArt
}
