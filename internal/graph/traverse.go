package graph

// INF marks unreachable nodes in distance slices.
const INF int32 = 1<<31 - 1

// BFS computes unweighted shortest-path distances from src. Unreachable
// nodes get INF.
func BFS(g *Graph, src Node) []int32 {
	return MultiSourceBFS(g, []Node{src})
}

// MultiSourceBFS computes, for every node, the minimum unweighted distance
// to any of the sources (the paper's dist(v) = min over q in Q of d(q,v)).
func MultiSourceBFS(g *Graph, sources []Node) []int32 {
	return g.packed().MultiSourceBFS(sources)
}

// MultiSourceBFSView is MultiSourceBFS restricted to the alive nodes of a
// view. Dead nodes and unreachable alive nodes get INF. Dead sources are
// skipped.
func MultiSourceBFSView(v *View, sources []Node) []int32 {
	g := v.Graph()
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = INF
	}
	queue := make([]Node, 0, len(sources))
	for _, s := range sources {
		if v.Alive(s) && dist[s] == INF {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.Neighbors(u) {
			if v.Alive(w) && dist[w] == INF {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ConnectedComponents labels every node with a component id in [0,k) and
// returns the labels plus k. The labels are g's memoised partition (see
// Graph.Components), shared with every other caller: do not modify them.
func ConnectedComponents(g *Graph) (comp []int32, count int) {
	comp, comps := g.Components()
	return comp, len(comps)
}

// ComponentOf returns the alive nodes reachable from src inside the view
// (including src). Returns nil when src is dead.
func ComponentOf(v *View, src Node) []Node {
	if !v.Alive(src) {
		return nil
	}
	seen := map[Node]bool{src: true}
	out := []Node{src}
	queue := []Node{src}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		v.EachNeighbor(u, func(w Node) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
				queue = append(queue, w)
			}
		})
	}
	return out
}

// ConnectedWithin reports whether all alive nodes of the view form a single
// connected subgraph. An empty view is connected by convention.
func ConnectedWithin(v *View) bool {
	if v.NumAlive() == 0 {
		return true
	}
	var src Node = -1
	for u := 0; u < v.Graph().NumNodes(); u++ {
		if v.Alive(Node(u)) {
			src = Node(u)
			break
		}
	}
	return len(ComponentOf(v, src)) == v.NumAlive()
}

// SameComponent reports whether all the given nodes lie in one connected
// component of g.
func SameComponent(g *Graph, nodes []Node) bool {
	if len(nodes) <= 1 {
		return true
	}
	dist := BFS(g, nodes[0])
	for _, u := range nodes[1:] {
		if dist[u] == INF {
			return false
		}
	}
	return true
}

type dijkstraItem struct {
	node Node
	dist float64
}

type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) Len() int            { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h dijkstraHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dijkstraHeap) Push(x interface{}) { *h = append(*h, x.(dijkstraItem)) }
func (h *dijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra computes weighted shortest-path distances from the sources
// over g's packed weights (unit weights when g is unweighted, so it
// degenerates to BFS distances). Unreachable nodes get -1.
func Dijkstra(g *Graph, sources []Node) []float64 {
	return g.packed().Dijkstra(sources)
}

// Eccentricity returns the maximum finite BFS distance from src.
func Eccentricity(g *Graph, src Node) int {
	dist := BFS(g, src)
	ecc := 0
	for _, d := range dist {
		if d != INF && int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter computes the exact diameter of g (the largest eccentricity over
// all nodes, ignoring unreachable pairs) by running a BFS from every node.
// Suitable for the small community subgraphs of Figure 4; use
// ApproxDiameter for whole large graphs.
func Diameter(g *Graph) int {
	d := 0
	for u := 0; u < g.NumNodes(); u++ {
		if e := Eccentricity(g, Node(u)); e > d {
			d = e
		}
	}
	return d
}

// ApproxDiameter lower-bounds the diameter with the classic double-sweep
// heuristic: BFS from src, then BFS from the farthest node found.
func ApproxDiameter(g *Graph, src Node) int {
	dist := BFS(g, src)
	far := src
	for u, d := range dist {
		if d != INF && d > dist[far] {
			far = Node(u)
		}
	}
	return Eccentricity(g, far)
}
