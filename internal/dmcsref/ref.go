// Package dmcsref is an independent model of what the DMCS stack must
// answer. It imports the standard library only (TestImportsStdlibOnly), so
// it shares no code with graph, dmcs, engine or wal, and any package's tests
// can import it without a cycle.
//
// The package has four parts. Search is the paper's peel transcribed over
// an edge list (arXiv 2204.07720): density modularity (Definition 2) and
// its two comparators, FPA (Algorithm 2) with Steiner protection (§5.6)
// and layer pruning (§5.7), and NCA (§5.4), each with its Λ / Θ sibling
// (§6.2.5). Model is a map-backed graph that keeps every epoch (model.go).
// Gen draws seeded operation sequences (gen.go). The Model's Check,
// CheckHit, Recovered and CheckState methods are the checker (check.go).
//
// Every argmax in Search rescans its candidates: no heap, no spanning
// tree, no articulation certificates; NCA may remove a node when a flood
// of what would be left reaches it all. Scores are compared bit for bit,
// so sums run in the order the Builder and CSRView document: d_v and w_G
// over sorted rows, w_C and d_S of a member set over its rows ascending,
// then w_C -= k_{u,S} and d_S -= d_u in removal order, with k_{u,S} summed
// afresh over u's row.
package dmcsref

import (
	"math"
	"slices"
)

// Edge is one undirected edge; W is 1 on an unweighted graph.
type Edge struct {
	U, V int
	W    float64
}

// Peel names the variant as dmcs.Variant.String spells it, layer pruning,
// the objective in dmcs.Objective's order (density modularity, classic
// modularity, generalized modularity density) and GMD's χ, where 0 means
// 1.
type Peel struct {
	Variant   string
	Pruning   bool
	Objective int
	Chi       float64
}

// Result is one search's answer: the community ascending, its score, the
// number of removals and their order.
type Result struct {
	Community  []int
	Score      float64
	Iterations int
	Order      []int
}

type arc struct {
	to int
	w  float64
}

type refGraph struct {
	adj [][]arc   // rows sorted by neighbour
	d   []float64 // node weight d_v
	wG  float64   // total edge weight
}

// Search runs one search for the query nodes q, which must lie in
// one connected component of the n-node graph.
func Search(n int, edges []Edge, q []int, o Peel) Result {
	return newRefGraph(n, edges).search(q, o)
}

func newRefGraph(n int, edges []Edge) *refGraph {
	g := &refGraph{adj: make([][]arc, n), d: make([]float64, n)}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], arc{e.V, e.W})
		g.adj[e.V] = append(g.adj[e.V], arc{e.U, e.W})
	}
	for u, row := range g.adj {
		slices.SortFunc(row, func(a, b arc) int { return a.to - b.to })
		for _, a := range row {
			g.d[u] += a.w
			if u < a.to {
				g.wG += a.w
			}
		}
	}
	return g
}

func (g *refGraph) search(q []int, o Peel) Result {
	var comp []int
	for u, d := range g.bfs(q[:1], nil, nil) {
		if d >= 0 {
			comp = append(comp, u)
		}
	}
	if o.Variant == "NCA" || o.Variant == "NCA-DR" {
		return g.nca(comp, q, o)
	}
	return g.fpa(comp, q, o)
}

// bfs returns hop distances from sources over the nodes alive admits
// (nil admits all), -1 where unreached. parent, when not nil, receives
// each node's BFS parent: the first node to reach it, rows scanned in
// order.
func (g *refGraph) bfs(sources []int, alive []bool, parent []int) []int {
	dist := make([]int, len(g.adj))
	for u := range dist {
		dist[u] = -1
	}
	var queue []int
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if dist[a.to] < 0 && (alive == nil || alive[a.to]) {
				dist[a.to] = dist[u] + 1
				queue = append(queue, a.to)
				if parent != nil {
					parent[a.to] = u
				}
			}
		}
	}
	return dist
}

// peel is the shrinking subgraph S and the best S seen so far.
type peel struct {
	g       *refGraph
	o       Peel
	members []int // S at the start, ascending
	alive   []bool
	k       []float64 // k_{v,S} of every alive v
	wC, dS  float64
	size    int
	order   []int
	bestIdx int // the best S is members minus order[:bestIdx]
	best    float64
}

func (g *refGraph) newPeel(members []int, o Peel) *peel {
	n := len(g.adj)
	p := &peel{g: g, o: o, members: members, alive: make([]bool, n), k: make([]float64, n), size: len(members)}
	for _, u := range members {
		p.alive[u] = true
	}
	for _, u := range members {
		p.dS += g.d[u]
		for _, a := range g.adj[u] {
			if p.alive[a.to] && u < a.to {
				p.wC += a.w
			}
		}
	}
	for _, u := range members {
		p.k[u] = p.kOf(u)
	}
	p.best = p.score()
	return p
}

func (p *peel) kOf(u int) (k float64) {
	for _, a := range p.g.adj[u] {
		if p.alive[a.to] {
			k += a.w
		}
	}
	return k
}

// score is the selection objective of S: Definition 2 by default.
func (p *peel) score() float64 {
	wC, dS, wG, n := p.wC, p.dS, p.g.wG, float64(p.size)
	if wG == 0 || p.size == 0 && p.o.Objective == 0 {
		return 0
	}
	if p.o.Objective == 0 {
		return wC/n - dS*dS/(4*wG*n)
	}
	cm := wC/wG - dS*dS/(4*wG*wG) // Definition 1
	if p.o.Objective == 1 {
		return cm
	}
	if p.size <= 1 {
		return 0
	}
	chi := p.o.Chi
	if chi == 0 {
		chi = 1
	}
	return cm * math.Pow(2*wC/(n*(n-1)), chi)
}

// lambda is the density modularity gain Λ_S(u) of Definition 6.
func (p *peel) lambda(u int) float64 {
	return -4*p.g.wG*p.k[u] + 2*p.dS*p.g.d[u] - p.g.d[u]*p.g.d[u]
}

// theta is the density ratio Θ_S(u) of Definition 7.
func (p *peel) theta(u int) float64 {
	if p.k[u] == 0 {
		return math.Inf(1)
	}
	return p.g.d[u] / p.k[u]
}

// remove takes u out of S; S becomes the best when it scores at least as
// well (Algorithm 2 line 13: ≥ keeps the smaller of equals).
func (p *peel) remove(u int) {
	p.wC -= p.k[u]
	p.dS -= p.g.d[u]
	p.alive[u] = false
	p.size--
	for _, a := range p.g.adj[u] {
		if p.alive[a.to] {
			p.k[a.to] = p.kOf(a.to)
		}
	}
	p.order = append(p.order, u)
	if sc := p.score(); sc >= p.best {
		p.best, p.bestIdx = sc, len(p.order)
	}
}

func (p *peel) result() Result {
	r := Result{Score: p.best, Iterations: len(p.order), Order: p.order}
	for _, u := range p.members {
		if !slices.Contains(p.order[:p.bestIdx], u) {
			r.Community = append(r.Community, u)
		}
	}
	return r
}

// fpa is Algorithm 2 (Θ) or FPA-DMG (Λ), with §5.7 pruning on request.
func (g *refGraph) fpa(comp, q []int, o Peel) Result {
	// §5.6: the query and the BFS-tree paths from the root query node to
	// the others get distance 0, so they are never removed.
	parent := make([]int, len(g.adj))
	g.bfs(q[:1], nil, parent)
	protected := []int{q[0]}
	for _, t := range q[1:] {
		for u := t; !slices.Contains(protected, u); u = parent[u] {
			protected = append(protected, u)
		}
	}
	dist := g.bfs(protected, nil, nil)
	maxD := 0
	for _, u := range comp {
		maxD = max(maxD, dist[u])
	}
	within := func(lo, hi int) (out []int) {
		for _, u := range comp {
			if lo <= dist[u] && dist[u] <= hi {
				out = append(out, u)
			}
		}
		return out
	}
	p := g.newPeel(comp, o)
	if !o.Pruning {
		for d := maxD; d >= 1; d-- {
			p.peelLayer(within(d, d))
		}
		return p.result()
	}
	// §5.7: drop whole layers outermost first and keep the best prefix
	// (≥ again), then peel only that prefix's outermost layer.
	bestJ, best := maxD, p.best
	for d := maxD; d >= 1; d-- {
		for _, u := range within(d, d) {
			p.remove(u)
		}
		if sc := p.score(); sc >= best {
			bestJ, best = d-1, sc
		}
	}
	p2 := g.newPeel(within(0, bestJ), o)
	if bestJ >= 1 {
		p2.peelLayer(within(bestJ, bestJ))
	}
	r := p2.result()
	r.Iterations += len(p.order)
	return r
}

// peelLayer removes every node of one distance layer, each time the
// argmax of Θ (then smaller k, then smaller id) or of Λ (then smaller id).
func (p *peel) peelLayer(left []int) {
	for len(left) > 0 {
		bi := 0
		for i, u := range left {
			b := left[bi]
			if p.o.Variant == "FPA" {
				tu, tb := p.theta(u), p.theta(b)
				if tu > tb || tu == tb && (p.k[u] < p.k[b] || p.k[u] == p.k[b] && u < b) {
					bi = i
				}
			} else if lu, lb := p.lambda(u), p.lambda(b); lu > lb || lu == lb && u < b {
				bi = i
			}
		}
		p.remove(left[bi])
		left = slices.Delete(left, bi, bi+1)
	}
}

// nca is §5.4: remove the best alive non-query node whose removal keeps S
// connected — Λ for NCA, Θ for NCA-DR, ties to the node farther from Q,
// then to the smaller id — until only Q is left or no node is removable.
func (g *refGraph) nca(comp, q []int, o Peel) Result {
	p := g.newPeel(comp, o)
	dist := g.bfs(q, nil, nil)
	isQ := make(map[int]bool)
	for _, u := range q {
		isQ[u] = true
	}
	for p.size > len(isQ) {
		rejected := make(map[int]bool) // removal would disconnect S
		for {
			best, bestScore := -1, 0.0
			for _, v := range comp {
				if !p.alive[v] || isQ[v] || rejected[v] {
					continue
				}
				sc := p.lambda(v)
				if o.Variant == "NCA-DR" {
					sc = p.theta(v)
				}
				if best < 0 || sc > bestScore || sc == bestScore && (dist[v] > dist[best] || dist[v] == dist[best] && v < best) {
					best, bestScore = v, sc
				}
			}
			if best < 0 {
				return p.result()
			}
			p.alive[best] = false
			reached := 0
			for _, d := range g.bfs(q[:1], p.alive, nil) {
				if d >= 0 {
					reached++
				}
			}
			p.alive[best] = true
			if reached == p.size-1 {
				p.remove(best)
				break
			}
			rejected[best] = true
		}
	}
	return p.result()
}
