package graph

import "slices"

// CSR is a compressed-sparse-row snapshot of a graph: the one storage
// layout of this repository. A Builder packs straight into it, Graph is a
// labelled view over it, and MergeCSR derives every later version from it.
//
// A snapshot is a page table over rows: pageRows consecutive node ids
// share one page, which owns its rows' offsets, targets, weights and
// cached weighted degrees. Builder.Build and DecodeCSR write one
// contiguous set of arrays and cut the pages out of it as sub-slices (no
// copy, no second layout in memory); MergeCSR copies the page table,
// rebuilds only the pages a batch touches, and shares every other page
// with the snapshot it merged into.
//
// Immutability is the whole safety argument: a page reachable from a
// published snapshot is never written again, so readers draining on
// version k and on its successors read the same pages with no lock.
//
// The peel's kernels do not read pages. They run on flatCSR, the
// contiguous form a SubCSR embeds: a component is extracted into one
// (NewSubCSR, Arena.ExtractSub), and a snapshot that still is the
// contiguous pack it was born as lends its own arrays (WrapCSR).
//
// The snapshot caches the aggregates the modularity formulas need — the
// per-node weighted degrees d_v of Definition 2 and the total edge weight
// w_G — accumulated in the order Builder.Build documents. w_G is one
// number per snapshot, never a sum of per-page partial sums: scores are
// compared bit for bit, and regrouping the terms by page would change the
// float association Build fixed.
type CSR struct {
	pages    []page
	n        int     // |V|
	entries  int     // adjacency entries, 2|E|
	weighted bool    // pages carry per-edge weights
	totalW   float64 // cached TotalWeight (|E| when unweighted)
	flat     flatCSR // the arrays the pages were cut from; zero for a merged snapshot
}

// pageRows is the number of consecutive node ids per page: a constant of
// the layout, chosen by measurement (CHANGES.md, PR 21), not an option.
const (
	pageShift = 8
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// page holds the rows of up to pageRows consecutive nodes. Row i is
// targets[offsets[i]:offsets[i+1]], with weights parallel to targets and
// wdeg[i] its cached weighted degree; len(offsets) is the row count + 1.
// offsets[0] is 0 in a page MergeCSR built and the page's position in the
// contiguous arrays in one cut from them (targets and weights then start
// at the arrays' start, so that rows index them the same way).
type page struct {
	offsets []int32
	targets []Node
	weights []float64 // nil for unweighted snapshots
	wdeg    []float64
}

// newContiguousCSR wraps freshly written flat arrays as a snapshot.
func newContiguousCSR(f flatCSR) *CSR {
	c := &CSR{flat: f}
	c.paginate(nil)
	return c
}

// paginate points the snapshot at its flat arrays: the pages (appended to
// buf) are sub-slices of them, the counts and w_G are theirs.
func (c *CSR) paginate(buf []page) {
	f := &c.flat
	c.n, c.entries, c.weighted, c.totalW = f.NumNodes(), len(f.targets), f.weights != nil, f.totalW
	buf = slices.Grow(buf, (c.n+pageMask)>>pageShift)
	for lo := 0; lo < c.n; lo += pageRows {
		hi := min(lo+pageRows, c.n)
		p := page{offsets: f.offsets[lo : hi+1], targets: f.targets[:f.offsets[hi]], wdeg: f.wdeg[lo:hi]}
		if c.weighted {
			p.weights = f.weights[:f.offsets[hi]]
		}
		buf = append(buf, p)
	}
	c.pages = buf
}

// Contiguous reports whether the snapshot still owns the contiguous
// arrays it was built or decoded into, which WrapCSR and Arena.WrapFull
// share with the kernels at no cost. A MergeCSR product does not.
func (c *CSR) Contiguous() bool { return c.flat.offsets != nil }

// flatten returns the contiguous form of the snapshot: its own arrays
// when it was born with them, otherwise a fresh pack of its pages.
func (c *CSR) flatten() *flatCSR {
	if c.Contiguous() {
		return &c.flat
	}
	all := make([]Node, c.n)
	for i := range all {
		all[i] = Node(i)
	}
	return &NewSubCSR(c, all).flatCSR
}

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges returns |E| (each undirected edge counted once).
func (c *CSR) NumEdges() int { return c.entries / 2 }

// Degree returns the degree of u.
func (c *CSR) Degree(u Node) int {
	p, i := &c.pages[u>>pageShift], u&pageMask
	return int(p.offsets[i+1] - p.offsets[i])
}

// Neighbors returns u's packed, sorted adjacency slice (do not modify).
func (c *CSR) Neighbors(u Node) []Node {
	p, i := &c.pages[u>>pageShift], u&pageMask
	return p.targets[p.offsets[i]:p.offsets[i+1]]
}

// Weighted reports whether the snapshot carries per-edge weights.
func (c *CSR) Weighted() bool { return c.weighted }

// NeighborWeights returns the edge weights parallel to Neighbors(u), or nil
// when the graph is unweighted (every edge weighs 1). Do not modify.
func (c *CSR) NeighborWeights(u Node) []float64 {
	if !c.weighted {
		return nil
	}
	p, i := &c.pages[u>>pageShift], u&pageMask
	return p.weights[p.offsets[i]:p.offsets[i+1]]
}

// WeightedDegree returns the cached node weight d_u (the sum of adjacent
// edge weights; the plain degree when unweighted).
func (c *CSR) WeightedDegree(u Node) float64 { return c.pages[u>>pageShift].wdeg[u&pageMask] }

// TotalWeight returns the cached total edge weight w_G (|E| unweighted).
func (c *CSR) TotalWeight() float64 { return c.totalW }

// Edges calls fn once per undirected edge with u < v, passing the edge
// weight (1 for unweighted snapshots). Iteration follows the packed
// adjacency — ascending u, ascending v — and stops early if fn returns
// false. Consumers that need a deterministic weighted edge sweep use this
// instead of Graph.Edges + EdgeWeight map lookups.
func (c *CSR) Edges(fn func(u, v Node, w float64) bool) {
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		adj := c.Neighbors(Node(u))
		if c.weighted {
			ws := c.NeighborWeights(Node(u))
			for i, v := range adj {
				if Node(u) < v {
					if !fn(Node(u), v, ws[i]) {
						return
					}
				}
			}
		} else {
			for _, v := range adj {
				if Node(u) < v {
					if !fn(Node(u), v, 1) {
						return
					}
				}
			}
		}
	}
}

// BFS computes unweighted distances from src over the CSR snapshot.
func (c *CSR) BFS(src Node) []int32 {
	return c.MultiSourceBFS([]Node{src})
}

// MultiSourceBFS computes, for every node, the minimum unweighted distance
// to any of the sources (the paper's dist(v) = min over q in Q of d(q,v)).
// Unreachable nodes get INF.
func (c *CSR) MultiSourceBFS(sources []Node) []int32 {
	n := c.NumNodes()
	return c.MultiSourceBFSInto(sources, make([]int32, n), make([]Node, 0, n))
}

// MultiSourceBFSInto is MultiSourceBFS writing into caller-owned scratch:
// dist must have length >= NumNodes and queue capacity >= NumNodes. It is
// the flat kernel run on the snapshot's contiguous form (a whole-graph
// BFS over a merged snapshot packs it first; searches never do that —
// they flood through Neighbors and extract their component).
func (c *CSR) MultiSourceBFSInto(sources []Node, dist []int32, queue []Node) []int32 {
	return c.flatten().MultiSourceBFSInto(sources, dist, queue)
}

// Component returns the sorted connected component containing src
// together with the BFS distance array that enumerated it (INF marks
// nodes outside the component, so callers validate membership of further
// nodes — e.g. the rest of a query — without a second traversal).
func (c *CSR) Component(src Node) ([]Node, []int32) {
	dist := c.BFS(src)
	comp := make([]Node, 0, 64)
	for u, d := range dist {
		if d != INF {
			comp = append(comp, Node(u))
		}
	}
	return comp, dist
}

// Components floods the whole snapshot once and returns its
// connected-component partition in canonical form: compID maps every node
// to a component id assigned in first-seen ascending-node order, and
// comps[id] is that component's member list, sorted ascending. It is the
// from-scratch form of what UpdatePartition maintains incrementally, and
// the only whole-graph flood in the package.
func (c *CSR) Components() (compID []int32, comps [][]Node) {
	n := c.NumNodes()
	compID = make([]int32, n)
	for i := range compID {
		compID[i] = -1
	}
	var sizes []int32
	var queue []Node
	for root := 0; root < n; root++ {
		if compID[root] != -1 {
			continue
		}
		id := int32(len(sizes))
		compID[root] = id
		queue = append(queue[:0], Node(root))
		for head := 0; head < len(queue); head++ {
			for _, w := range c.Neighbors(queue[head]) {
				if compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, int32(len(queue)))
	}
	return compID, memberLists(compID, sizes)
}

// Triangles counts the triangles incident to every node using the packed
// lists (merge-intersection over sorted adjacencies).
func (c *CSR) Triangles() []int32 {
	n := c.NumNodes()
	tri := make([]int32, n)
	for u := 0; u < n; u++ {
		nu := c.Neighbors(Node(u))
		for _, v := range nu {
			if v <= Node(u) {
				continue
			}
			nv := c.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] == nv[j]:
					if nu[i] > v { // count each triangle once at its apex
						tri[u]++
						tri[v]++
						tri[nu[i]]++
					}
					i++
					j++
				case nu[i] < nv[j]:
					i++
				default:
					j++
				}
			}
		}
	}
	return tri
}

// LocalClustering returns each node's local clustering coefficient
// 2·tri(u) / (deg(u)·(deg(u)−1)), 0 for degree < 2. The paper uses the
// average difference of local clustering coefficients between ground-truth
// communities to explain NCA's behaviour on Dolphin/Polblogs (§6.3).
func (c *CSR) LocalClustering() []float64 {
	tri := c.Triangles()
	out := make([]float64, c.NumNodes())
	for u := range out {
		d := c.Degree(Node(u))
		if d >= 2 {
			out[u] = 2 * float64(tri[u]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// AvgClustering returns the mean local clustering coefficient over the
// given node set (over all nodes when set is nil).
func (c *CSR) AvgClustering(set []Node) float64 {
	cc := c.LocalClustering()
	if set == nil {
		var t float64
		for _, x := range cc {
			t += x
		}
		if len(cc) == 0 {
			return 0
		}
		return t / float64(len(cc))
	}
	if len(set) == 0 {
		return 0
	}
	var t float64
	for _, u := range set {
		t += cc[u]
	}
	return t / float64(len(set))
}
