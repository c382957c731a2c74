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

// ConnectedComponents labels every node with a component id in [0,k) and
// returns the labels plus k. The labels are g's memoised partition (see
// Graph.Components), shared with every other caller: do not modify them.
func ConnectedComponents(g *Graph) (comp []int32, count int) {
	comp, comps := g.Components()
	return comp, len(comps)
}

// SameComponent reports whether all the given nodes lie in one connected
// component of g. It reads g's memoised partition: O(len(nodes)), no
// traversal. A node id outside [0, NumNodes) is in no component, so any
// set containing one reports false; the empty set reports true.
func SameComponent(g *Graph, nodes []Node) bool {
	compID, _ := g.Components()
	for _, u := range nodes {
		if u < 0 || int(u) >= len(compID) || compID[u] != compID[nodes[0]] {
			return false
		}
	}
	return true
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
// Suitable for the small community subgraphs of Figure 4.
func Diameter(g *Graph) int {
	d := 0
	for u := 0; u < g.NumNodes(); u++ {
		if e := Eccentricity(g, Node(u)); e > d {
			d = e
		}
	}
	return d
}
