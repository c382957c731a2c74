// Package kecc implements k-edge-connected components and the kecc
// community-search baseline (Chang et al. 2015). Two engines are provided:
//
//   - MinCut: the exact Stoer–Wagner global minimum cut, used on small
//     (sub)graphs and as the correctness reference;
//   - Decompose: a recursive cut-and-split decomposition that peels
//     degree-<k nodes, then looks for cuts of size < k with forced-and-
//     random edge contraction (in the spirit of Akiba, Iwata & Yoshida
//     2013), falling back to Stoer–Wagner on small components so results
//     stay exact where it is affordable.
package kecc

import (
	"math/rand"
	"slices"
	"sort"

	"dmcs/internal/graph"
)

// swThreshold is the component size at and below which the decomposition
// verifies connectivity with the exact Stoer–Wagner cut. Above it the
// randomized contraction search takes over (O(n³) Stoer–Wagner would
// dominate whole-experiment runtimes otherwise).
const swThreshold = 128

// contractTrials is the number of random-contraction attempts before a
// large component is declared k-edge-connected.
const contractTrials = 24

// MinCut computes the global minimum edge cut of the *connected* graph g
// with the Stoer–Wagner algorithm, returning the cut weight and the nodes
// on one side. For unweighted graphs the weight is the number of cut
// edges. Graphs with fewer than 2 nodes return (0, nil).
func MinCut(g *graph.Graph) (float64, []graph.Node) {
	n := g.NumNodes()
	if n < 2 {
		return 0, nil
	}
	// dense weight matrix; callers only use MinCut on small graphs
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	g.EdgesW(func(u, v graph.Node, we float64) bool {
		w[u][v] += we
		w[v][u] += we
		return true
	})
	// merged[i] lists original nodes represented by i
	merged := make([][]graph.Node, n)
	for i := range merged {
		merged[i] = []graph.Node{graph.Node(i)}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	bestW := -1.0
	var bestSide []graph.Node
	for len(active) > 1 {
		// maximum adjacency (minimum cut phase)
		inA := make(map[int]bool, len(active))
		weights := make(map[int]float64, len(active))
		order := make([]int, 0, len(active))
		for len(order) < len(active) {
			// pick most tightly connected remaining node
			sel, selW := -1, -1.0
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		var s int
		if len(order) >= 2 {
			s = order[len(order)-2]
		}
		cutW := 0.0
		for _, v := range active {
			if v != t {
				cutW += w[t][v]
			}
		}
		if bestW < 0 || cutW < bestW {
			bestW = cutW
			bestSide = append([]graph.Node(nil), merged[t]...)
		}
		// merge t into s
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		merged[s] = append(merged[s], merged[t]...)
		for i, v := range active {
			if v == t {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	slices.Sort(bestSide)
	return bestW, bestSide
}

// EdgeConnectivity returns the edge connectivity of a connected graph
// (0 for graphs with < 2 nodes).
func EdgeConnectivity(g *graph.Graph) int {
	w, _ := MinCut(g)
	return int(w + 0.5)
}

// Decompose partitions g into its maximal k-edge-connected subgraphs
// (node sets of size ≥ 2). Nodes belonging to no such subgraph are
// omitted. Deterministic for a fixed seed.
func Decompose(g *graph.Graph, k int, seed int64) [][]graph.Node {
	rng := rand.New(rand.NewSource(seed))
	var out [][]graph.Node
	work := [][]graph.Node{allNodes(g)}
	for len(work) > 0 {
		set := work[len(work)-1]
		work = work[:len(work)-1]
		// peel nodes with degree < k, split into components
		comps := peelAndSplit(g, set, k)
		for _, comp := range comps {
			if len(comp) < 2 {
				continue
			}
			side := findCutBelow(g, comp, k, rng)
			if side == nil {
				slices.Sort(comp)
				out = append(out, comp)
				continue
			}
			other := subtract(comp, side)
			work = append(work, side, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Community returns the kecc baseline: the maximal k-edge-connected
// subgraph containing all the query nodes, or nil.
func Community(g *graph.Graph, q []graph.Node, k int, seed int64) []graph.Node {
	if len(q) == 0 {
		return nil
	}
	for _, comp := range Decompose(g, k, seed) {
		in := make(map[graph.Node]bool, len(comp))
		for _, u := range comp {
			in[u] = true
		}
		all := true
		for _, u := range q {
			if !in[u] {
				all = false
				break
			}
		}
		if all {
			return comp
		}
	}
	return nil
}

func allNodes(g *graph.Graph) []graph.Node {
	out := make([]graph.Node, g.NumNodes())
	for i := range out {
		out[i] = graph.Node(i)
	}
	return out
}

func subtract(set, minus []graph.Node) []graph.Node {
	drop := make(map[graph.Node]bool, len(minus))
	for _, u := range minus {
		drop[u] = true
	}
	var out []graph.Node
	for _, u := range set {
		if !drop[u] {
			out = append(out, u)
		}
	}
	return out
}

// peelAndSplit removes nodes with degree < k (iteratively) within the
// induced subgraph over set, then returns its connected components, each
// in set order.
func peelAndSplit(g *graph.Graph, set []graph.Node, k int) [][]graph.Node {
	v := graph.NewCSRViewOf(graph.NewCSR(g), set)
	queue := make([]graph.Node, 0)
	for _, u := range set {
		if v.DegreeIn(u) < k {
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !v.Alive(u) {
			continue
		}
		v.Remove(u)
		for _, w := range g.Neighbors(u) {
			if v.Alive(w) && v.DegreeIn(w) < k {
				queue = append(queue, w)
			}
		}
	}
	// One alive-restricted BFS per component, from the first survivor not
	// yet emitted; what it does not reach stays in rest for the next one.
	var rest []graph.Node
	for _, u := range set {
		if v.Alive(u) {
			rest = append(rest, u)
		}
	}
	var comps [][]graph.Node
	dist := make([]int32, g.NumNodes())
	bfsQueue := make([]graph.Node, 0, len(rest))
	for len(rest) > 0 {
		v.MultiSourceBFSInto(rest[:1], dist, bfsQueue)
		var comp []graph.Node
		next := rest[:0]
		for _, x := range rest {
			if dist[x] != graph.INF {
				comp = append(comp, x)
			} else {
				next = append(next, x)
			}
		}
		comps = append(comps, comp)
		rest = next
	}
	return comps
}

// findCutBelow searches for an edge cut of size < k inside the induced
// connected subgraph over comp. It returns one side of such a cut, or nil
// when none is found (the component is declared k-edge-connected). Small
// components are verified exactly with Stoer–Wagner.
func findCutBelow(g *graph.Graph, comp []graph.Node, k int, rng *rand.Rand) []graph.Node {
	if len(comp) <= swThreshold {
		sub, back := g.InducedSubgraph(comp)
		w, side := MinCut(sub)
		if int(w+0.5) >= k {
			return nil
		}
		out := make([]graph.Node, len(side))
		for i, u := range side {
			out[i] = back[u]
		}
		return out
	}
	for trial := 0; trial < contractTrials; trial++ {
		if side := contractOnce(g, comp, k, rng); side != nil {
			return side
		}
	}
	return nil
}

// contractOnce performs one randomized contraction pass: edges with
// multiplicity ≥ k are contracted eagerly (they can never be separated by
// a cut < k); otherwise random edges are contracted. Whenever a super-node
// of total degree < k appears while ≥ 2 super-nodes remain, its members
// form one side of a cut of size < k.
func contractOnce(g *graph.Graph, comp []graph.Node, k int, rng *rand.Rand) []graph.Node {
	idx := make(map[graph.Node]int32, len(comp))
	for i, u := range comp {
		idx[u] = int32(i)
	}
	n := len(comp)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// super-node adjacency with multiplicities
	adj := make([]map[int32]int32, n)
	for i, u := range comp {
		adj[i] = make(map[int32]int32)
		for _, w := range g.Neighbors(u) {
			if j, ok := idx[w]; ok {
				adj[i][j]++
			}
		}
	}
	deg := make([]int32, n)
	for i := range adj {
		for _, c := range adj[i] {
			deg[i] += c
		}
	}
	alive := n
	members := make([][]graph.Node, n)
	for i, u := range comp {
		members[i] = []graph.Node{u}
	}
	var contract func(a, b int32)
	contract = func(a, b int32) {
		// merge smaller map into larger
		if len(adj[a]) < len(adj[b]) {
			a, b = b, a
		}
		parent[b] = a
		members[a] = append(members[a], members[b]...)
		members[b] = nil
		delete(adj[a], b)
		for nb, c := range adj[b] {
			if nb == a {
				continue
			}
			adj[a][nb] += c
			adj[nb][a] += c
			delete(adj[nb], b)
		}
		adj[b] = nil
		deg[a] = 0
		for _, c := range adj[a] {
			deg[a] += c
		}
		alive--
	}
	// edge pool in random order
	type epair struct{ a, b int32 }
	var pool []epair
	for i, u := range comp {
		for _, w := range g.Neighbors(u) {
			if j, ok := idx[w]; ok && int32(i) < j {
				pool = append(pool, epair{int32(i), j})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	checkLow := func(x int32) []graph.Node {
		if alive >= 2 && deg[x] < int32(k) {
			return members[x]
		}
		return nil
	}
	forced := func(a int32) (int32, bool) {
		for nb, c := range adj[a] {
			if c >= int32(k) {
				return nb, true
			}
		}
		return 0, false
	}
	for _, e := range pool {
		if alive <= 1 {
			break
		}
		a, b := find(e.a), find(e.b)
		if a == b {
			continue
		}
		contract(a, b)
		root := find(a)
		if side := checkLow(root); side != nil {
			return side
		}
		// eager forced contractions around the merge point
		for {
			nb, ok := forced(root)
			if !ok || alive <= 1 {
				break
			}
			contract(root, nb)
			root = find(root)
			if side := checkLow(root); side != nil {
				return side
			}
		}
	}
	return nil
}
