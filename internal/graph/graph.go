// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: construction and plain-text I/O (Builder,
// Graph), the packed CSR snapshot and its per-component SubCSR, the one
// mutable alive set peeling algorithms remove nodes from (CSRView, with
// its articulation-point sweep and alive-restricted BFS), whole-graph BFS,
// connected components and diameter, and the delta / merge / codec
// machinery the serving layers version snapshots with.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected.
// Nodes are dense indices of type Node ([0, N)). Loaders that read edge
// lists with arbitrary string labels keep a label table on the side.
//
// There is one storage layout. A Builder packs its edges straight into
// the flat CSR arrays; the Graph it returns is a labelled view over that
// one immutable snapshot, and NewCSR hands the same snapshot to the
// search and serving layers without copying it.
package graph

import (
	"slices"
	"strconv"
	"sync"
)

// Node is a dense node identifier in [0, NumNodes).
type Node = int32

// Graph is an immutable simple undirected graph. Build one with a Builder.
//
// A Graph is born packed: it owns one CSR snapshot (NewCSR returns it, so
// the search and serving layers share the arrays instead of copying them)
// plus the optional label table, and it memoises its connected-component
// partition on first use. Adjacency rows are sorted by neighbor id, so
// HasEdge and EdgeWeight are binary searches into the packed row.
//
// The zero value is an empty graph. A Graph must not be copied after
// first use (it carries a sync.Once).
type Graph struct {
	csr    *CSR     // the packed snapshot; nil only in the zero value
	labels []string // optional external labels, len 0 or NumNodes

	partOnce sync.Once
	compID   []int32  // node -> component id, see CSR.Components
	comps    [][]Node // component id -> sorted members
	whole    *SubCSR  // identity sub over csr when the graph is one component
}

// emptyCSR backs the zero Graph: what a Builder with no nodes packs.
var emptyCSR = NewBuilder(0).Build().csr

// packed returns the snapshot every accessor reads.
func (g *Graph) packed() *CSR {
	if g.csr == nil {
		return emptyCSR
	}
	return g.csr
}

// NewCSR returns g's packed snapshot. The Graph was packed when it was
// built, so this is O(1) and every call returns the same immutable
// arrays: callers share them with g and must not modify them.
func NewCSR(g *Graph) *CSR { return g.packed() }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.packed().NumNodes() }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.packed().NumEdges() }

// Degree returns the degree of node u.
func (g *Graph) Degree(u Node) int { return g.packed().Degree(u) }

// Neighbors returns the sorted adjacency list of u: a row of the packed
// snapshot, capped at its own length so that an append can never write
// into the next row. The caller must not modify the returned slice.
func (g *Graph) Neighbors(u Node) []Node {
	adj := g.packed().Neighbors(u)
	return adj[:len(adj):len(adj)]
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v Node) bool { return g.packed().HasEdge(u, v) }

// Label returns the external label of node u, or its decimal id when the
// graph was built without labels.
func (g *Graph) Label(u Node) string {
	if len(g.labels) == 0 {
		return strconv.Itoa(int(u))
	}
	return g.labels[u]
}

// EdgeWeight returns the weight of edge (u,v). Unweighted graphs (and
// missing edges) report 1 so the unweighted formulas fall out of the
// weighted ones.
func (g *Graph) EdgeWeight(u, v Node) float64 {
	c := g.packed()
	if !c.weighted {
		return 1
	}
	if w, ok := c.edgeWeightOf(u, v); ok {
		return w
	}
	return 1
}

// Weighted reports whether any edge carries a non-unit weight.
func (g *Graph) Weighted() bool { return g.packed().Weighted() }

// TotalWeight returns the sum of edge weights (|E| for unweighted graphs).
func (g *Graph) TotalWeight() float64 { return g.packed().totalW }

// WeightedDegree returns the sum of adjacent edge weights of u (the node
// weight in the paper's Definition 2).
func (g *Graph) WeightedDegree(u Node) float64 { return g.packed().WeightedDegree(u) }

// Edges calls fn once per undirected edge with u < v. Iteration stops early
// if fn returns false.
func (g *Graph) Edges(fn func(u, v Node) bool) {
	g.packed().Edges(func(u, v Node, _ float64) bool { return fn(u, v) })
}

// EdgesW is Edges with the edge weight passed along (1 for unweighted
// graphs), in deterministic ascending-adjacency order.
func (g *Graph) EdgesW(fn func(u, v Node, w float64) bool) { g.packed().Edges(fn) }

// EdgeList materializes all undirected edges with u < v.
func (g *Graph) EdgeList() [][2]Node {
	out := make([][2]Node, 0, g.NumEdges())
	g.Edges(func(u, v Node) bool {
		out = append(out, [2]Node{u, v})
		return true
	})
	return out
}

// Components returns g's connected-component partition in the canonical
// form of CSR.Components. It is computed on first use, once per Graph,
// and shared by every later caller (the search entry points, the engine's
// first snapshot): nothing in it may be modified.
func (g *Graph) Components() (compID []int32, comps [][]Node) {
	g.partition()
	return g.compID, g.comps
}

// WholeSub returns the identity SubCSR over g's snapshot when g is one
// connected component, and nil otherwise. It is built with the partition,
// so searches on a connected graph neither extract a sub nor re-sum the
// node weights per query.
func (g *Graph) WholeSub() *SubCSR {
	g.partition()
	return g.whole
}

func (g *Graph) partition() {
	g.partOnce.Do(func() {
		c := g.packed()
		g.compID, g.comps = c.Components()
		if len(g.comps) == 1 {
			g.whole = WrapCSR(c)
		}
	})
}

// InducedSubgraph builds a new compact Graph over the node set keep. The
// second return value maps new ids back to ids in g.
func (g *Graph) InducedSubgraph(keep []Node) (*Graph, []Node) {
	old2new := make(map[Node]Node, len(keep))
	back := make([]Node, len(keep))
	sorted := append([]Node(nil), keep...)
	slices.Sort(sorted)
	for i, u := range sorted {
		old2new[u] = Node(i)
		back[i] = u
	}
	b := NewBuilder(len(sorted))
	weighted := g.Weighted()
	for _, u := range sorted {
		for _, v := range g.Neighbors(u) {
			if nv, ok := old2new[v]; ok && u < v {
				if weighted {
					b.SetWeight(old2new[u], nv, g.EdgeWeight(u, v))
				} else {
					b.AddEdge(old2new[u], nv)
				}
			}
		}
	}
	sub := b.Build()
	if len(g.labels) > 0 {
		sub.labels = make([]string, len(sorted))
		for i, u := range back {
			sub.labels[i] = g.labels[u]
		}
	}
	return sub, back
}

// Builder accumulates edges and produces an immutable Graph. Self-loops
// are silently dropped. Repeated records of the same edge are
// deterministic last-wins: the adjacency entry is never duplicated, and
// the final AddEdge/SetWeight call decides the weight (AddEdge resets it
// to the default 1).
type Builder struct {
	n      int
	edges  map[[2]Node]struct{}
	ew     map[[2]Node]float64
	labels []string
	// weighted makes Build pack explicit weights even when ew is empty:
	// ParseEdgeList sets it for a file whose weighted lines were all
	// overridden by later bare ones.
	weighted bool
}

// NewBuilder creates a Builder for a graph with n nodes. AddEdge may grow n
// implicitly when given larger endpoints.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]Node]struct{})}
}

// SetLabels attaches external node labels; len(labels) fixes the node count
// if larger than the current one.
func (b *Builder) SetLabels(labels []string) {
	b.labels = labels
	if len(labels) > b.n {
		b.n = len(labels)
	}
}

// AddEdge records the undirected edge (u,v) with the default weight 1.
// Self-loops are ignored. Re-adding an edge that already carries a weight
// resets it to the default — the last record of an edge wins.
func (b *Builder) AddEdge(u, v Node) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges[[2]Node{u, v}] = struct{}{}
	if b.ew != nil {
		delete(b.ew, [2]Node{u, v})
	}
}

// SetWeight sets the weight of edge (u,v), adding the edge if absent and
// overwriting any previously recorded weight (last wins).
func (b *Builder) SetWeight(u, v Node, w float64) {
	b.AddEdge(u, v)
	if u > v {
		u, v = v, u
	}
	if b.ew == nil {
		b.ew = make(map[[2]Node]float64)
	}
	b.ew[[2]Node{u, v}] = w
}

// NumEdges returns the number of distinct edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the graph, packing the recorded edges straight into
// the CSR arrays: rows by counting sort on the endpoints, each row sorted
// ascending, weights filled in packed order. The cached aggregates are
// accumulated in the one canonical order every other producer of a
// snapshot reproduces (MergeCSR, the sub-CSR extraction): wdeg[u] over
// u's row in ascending-neighbor order, w_G over the entries with u < w in
// ascending u then ascending w. Float addition is order-sensitive and
// searches compare scores bit for bit, so this order is a contract.
// The Builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	n := b.n
	c := flatCSR{
		offsets: make([]int32, n+1),
		targets: make([]Node, 2*len(b.edges)),
		wdeg:    make([]float64, n),
	}
	// offsets[u] counts u's degree, then becomes the start of row u, then
	// serves as the row's fill cursor (ending at the start of row u+1),
	// and is finally shifted up by one slot.
	off := c.offsets
	for e := range b.edges {
		off[e[0]]++
		off[e[1]]++
	}
	var pos int32
	for u, d := range off {
		off[u] = pos
		pos += d
	}
	for e := range b.edges {
		c.targets[off[e[0]]] = e[1]
		off[e[0]]++
		c.targets[off[e[1]]] = e[0]
		off[e[1]]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	for u := 0; u < n; u++ {
		slices.Sort(c.targets[off[u]:off[u+1]])
	}

	// len, not nil: AddEdge may have reset every recorded weight, and an
	// empty weight map must not make the graph report Weighted.
	if len(b.ew) > 0 || b.weighted && len(b.edges) > 0 {
		c.weights = make([]float64, len(c.targets))
		for u := 0; u < n; u++ {
			for i := off[u]; i < off[u+1]; i++ {
				w := c.targets[i]
				key := [2]Node{Node(u), w}
				if w < Node(u) {
					key = [2]Node{w, Node(u)}
				}
				ew, ok := b.ew[key]
				if !ok {
					ew = 1 // last record of the edge was a bare AddEdge
				}
				c.weights[i] = ew
				c.wdeg[u] += ew
				if Node(u) < w {
					c.totalW += ew
				}
			}
		}
	} else {
		for u := range c.wdeg {
			c.wdeg[u] = float64(off[u+1] - off[u])
		}
		c.totalW = float64(len(b.edges))
	}

	g := &Graph{csr: newContiguousCSR(c)}
	if b.labels != nil {
		g.labels = append([]string(nil), b.labels...)
	}
	return g
}

// FromEdges is a convenience constructor for tests and examples.
func FromEdges(n int, edges [][2]Node) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
