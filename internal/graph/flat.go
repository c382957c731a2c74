package graph

// flatCSR is the contiguous packed form every kernel of the peel reads:
// all adjacency lists in one targets slice with per-node offsets, the
// parallel weights, and the cached node weights. A SubCSR embeds one —
// extracted from a snapshot's pages, or lent by a snapshot that was born
// contiguous — so levelBFS, Layering, CSRView, the Θ-heap and NCA's
// certificates index flat arrays with no page lookup.
type flatCSR struct {
	offsets []int32
	targets []Node
	weights []float64 // parallel to targets; nil for unweighted graphs
	wdeg    []float64 // cached WeightedDegree per node (plain degree when unweighted)
	totalW  float64   // the w_G scores normalize by (see SubCSR)
}

// NumNodes returns |V|.
func (c *flatCSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (c *flatCSR) NumEdges() int { return len(c.targets) / 2 }

// Degree returns the degree of u.
func (c *flatCSR) Degree(u Node) int { return int(c.offsets[u+1] - c.offsets[u]) }

// Neighbors returns u's packed, sorted adjacency slice (do not modify).
func (c *flatCSR) Neighbors(u Node) []Node { return c.targets[c.offsets[u]:c.offsets[u+1]] }

// Weighted reports whether the arrays carry per-edge weights.
func (c *flatCSR) Weighted() bool { return c.weights != nil }

// NeighborWeights returns the weights parallel to Neighbors(u); nil when
// unweighted (every edge weighs 1).
func (c *flatCSR) NeighborWeights(u Node) []float64 {
	if c.weights == nil {
		return nil
	}
	return c.weights[c.offsets[u]:c.offsets[u+1]]
}

// WeightedDegree returns the cached node weight d_u.
func (c *flatCSR) WeightedDegree(u Node) float64 { return c.wdeg[u] }

// WeightedDegrees returns the cached node-weight table, indexed by node
// id and shared by every query on the sub (do not modify).
func (c *flatCSR) WeightedDegrees() []float64 { return c.wdeg }

// TotalWeight returns the total edge weight w_G scores normalize by.
func (c *flatCSR) TotalWeight() float64 { return c.totalW }

// MultiSourceBFSInto computes, for every node, the minimum unweighted
// distance to any of the sources (INF when unreachable) into caller-owned
// scratch: dist must have length >= NumNodes and queue capacity >=
// NumNodes (each node is enqueued at most once, so the queue never
// reallocates). Arenas use it to make per-query traversal allocation-free.
func (c *flatCSR) MultiSourceBFSInto(sources []Node, dist []int32, queue []Node) []int32 {
	dist = dist[:c.NumNodes()]
	for i := range dist {
		dist[i] = INF
	}
	c.levelBFS(sources, dist, queue, len(dist), len(c.targets))
	return dist
}

// bfsBottomUpFactor fixes when a BFS level is expanded bottom-up: when
// the frontier's adjacency entries, times this factor, exceed what a
// bottom-up step reads at worst (see levelBFS).
const bfsBottomUpFactor = 4

// levelBFS is the package's BFS: a level-synchronous,
// direction-optimizing multi-source BFS (Beamer et al.) over the packed
// adjacency. On entry dist[u] == INF marks the nodes it may reach and any
// other value excludes u for good (CSRView folds its dead nodes in that
// way, so the inner loops pay one random read per entry); unvisited
// counts the INF nodes and unvisitedEntries their adjacency entries.
// Sources that are not INF — excluded or repeated — are skipped. It
// writes every reached node's level into dist and returns how many
// levels it expanded bottom-up. Layering runs the same levels one at a
// time with the same kernels, but by a direction rule of its own, as it
// also counts (see Layering).
//
// A level is expanded top-down (every frontier node claims its INF
// neighbours: one read per frontier entry) while the frontier is light,
// and bottom-up (every INF node scans its own entries for a neighbour on
// the previous level and stops at the first) when
//
//	bfsBottomUpFactor * frontierEntries > unvisitedEntries + n,
//
// the right-hand side being everything a bottom-up step can read: one
// pass over the node ids plus every unvisited entry. Layering a query's
// component is the case it is for: degree-skewed graphs put most nodes
// two or three hops out, the frontier's entries then outnumber the
// unvisited ones, and almost every unvisited node finds a parent among
// its first few entries. The BFS stops once no INF node is left, so the
// last layers are never expanded at all. Levels are unique, so dist does
// not depend on the directions taken.
//
// Cost on any input stays O(n + entries). A bottom-up step reads fewer
// than bfsBottomUpFactor times its frontier's entries, and every entry is
// a frontier entry once. Two bottom-up steps in a row shrink the
// unvisited entries geometrically: the second needs factor*f' > m', where
// f' are the entries the first one reached and m' those it left, and it
// started from m = m' + f' > m'*(1 + 1/factor). A run of bottom-up steps
// is therefore at most log_{1+1/factor}(entries) long; and since every
// one of them needs factor*f > n, there are at most factor*entries/n in
// total.
func (c *flatCSR) levelBFS(sources []Node, dist []int32, queue []Node, unvisited, unvisitedEntries int) (bottomUp int) {
	queue = enqueueSources(sources, dist, queue[:0])
	unvisited -= len(queue)
	head := 0
	for d := int32(1); head < len(queue) && unvisited > 0; d++ {
		frontier := queue[head:]
		head = len(queue)
		// Summing the frontier's degrees here, not as nodes are reached,
		// keeps the expansion loops free of it and loads the very offsets
		// the top-down loop reads next.
		entries := c.entriesOf(frontier)
		unvisitedEntries -= entries
		if bfsBottomUpFactor*entries > unvisitedEntries+len(dist) {
			bottomUp++
			queue, _ = c.bottomUpStep(dist, queue, d)
		} else {
			queue = c.topDownStep(frontier, dist, queue, d)
		}
		unvisited -= len(queue) - head
	}
	return bottomUp
}

// enqueueSources gives every INF source level 0 and appends it to queue.
func enqueueSources(sources []Node, dist []int32, queue []Node) []Node {
	for _, s := range sources {
		if dist[s] == INF {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	return queue
}

// Layering is levelBFS stopped after every level, for a caller that
// decides from each level whether it needs the next one: layer pruning,
// which stops once no larger distance prefix can score better (see
// internal/dmcs). It is also the one store of FPA's BFS levels: the queue
// holds the reached nodes level by level and starts indexes where each
// level begins, so a peel reads Level(d) in place. Arena.Layering starts
// one at level 0, the sources. Each Step expands one level with
// levelBFS's kernels and also counts the edges between the new level and
// the one before it. A top-down step counts them while it expands,
// reading the frontier's entries once. A bottom-up step stops at each
// unvisited node's first parent, so it counts afterwards, from the new
// level's entries into d-1: with U the unvisited entries, it reads at
// most U for the partial rows and at most U more for the count. Step
// therefore goes bottom-up only when
//
//	bfsBottomUpFactor * (frontierEntries - 2U) > n,
//
// that is, when the frontier's entries exceed 2U, all a counted
// bottom-up step can read, by n/bfsBottomUpFactor, the margin levelBFS
// leaves for the pass over the node ids. So a counted step never reads
// more entries than top-down would, and the new level is always the side
// with fewer entries. The cost of layering up to level d is O(n + the entries of
// levels 0..d-1), counting included. The counting kernels are functions
// of their own: written out beside the plain loops in one body, they
// slowed the BFS that counts nothing by 10-20 % on a 16k-node expander
// (same-binary A/B, 2-vCPU Xeon, Go 1.24).
type Layering struct {
	c        *flatCSR
	dist     []int32
	queue    []Node  // the nodes reached so far, level by level
	starts   []int32 // where each level starts in queue, then len(queue)
	reads    int     // adjacency entries read so far
	bottomUp int     // levels expanded bottom-up so far

	unvisited, unvisitedEntries int
}

// Layering starts a layering of sub from sources in the arena's slot-0
// distance buffer and its queue, whose spare slot topDownCounting needs;
// the level starts keep their buffer from one layering to the next.
// Entering it again, or taking the slot-0 distance buffer or the queue,
// ends the layering.
func (a *Arena) Layering(sub *SubCSR, sources []Node) *Layering {
	n := sub.NumNodes()
	dist := a.Dist(0, n)
	for i := range dist {
		dist[i] = INF
	}
	queue := enqueueSources(sources, dist, a.Queue(n))
	a.layering = Layering{
		c:                &sub.flatCSR,
		dist:             dist,
		queue:            queue,
		starts:           append(a.layering.starts[:0], 0, int32(len(queue))),
		unvisited:        n - len(queue),
		unvisitedEntries: len(sub.targets),
	}
	return &a.layering
}

// Step expands the level after the last one, d, and returns it; the
// adjacency entries of level d-1 (its summed degrees); and the number of
// edges between levels d-1 and d. Once every reachable node has a level
// it returns an empty level and no cross edges, and reads nothing.
func (l *Layering) Step() (level []Node, entries, cross int) {
	c := l.c
	d := int32(len(l.starts) - 1)
	frontier := l.queue[l.starts[d-1]:]
	entries = c.entriesOf(frontier)
	if l.unvisited == 0 {
		return nil, entries, 0
	}
	start := len(l.queue)
	l.unvisitedEntries -= entries
	var x int32
	if bfsBottomUpFactor*(entries-2*l.unvisitedEntries) > len(l.dist) {
		var reads, reached int
		l.queue, reads = c.bottomUpStep(l.dist, l.queue, d)
		x, reached = c.entriesTo(l.queue[start:], l.dist, d-1)
		l.reads += reads + reached
		l.bottomUp++
	} else {
		l.queue, x = c.topDownCounting(frontier, l.dist, l.queue, d)
		l.reads += entries
	}
	level = l.queue[start:]
	if len(level) == 0 { // the sources' component is done: stop here
		l.unvisited = 0
		return nil, entries, 0
	}
	l.starts = append(l.starts, int32(len(l.queue)))
	l.unvisited -= len(level)
	return level, entries, int(x)
}

// CompleteAscending runs the remaining steps and then lists each level in
// ascending id order: one counting pass over Dist into the same queue
// slots, each level's start serving as its cursor, after which start d
// holds where level d+1 begins and the starts shift back one place.
func (l *Layering) CompleteAscending() {
	for l.unvisited > 0 {
		l.Step()
	}
	starts, q := l.starts, l.queue
	for u, d := range l.dist {
		if d != INF {
			q[starts[d]] = Node(u)
			starts[d]++
		}
	}
	copy(starts[1:len(starts)-1], starts)
	starts[0] = 0
}

// Levels returns the number of levels expanded so far, level 0 included.
func (l *Layering) Levels() int { return len(l.starts) - 1 }

// Level returns the nodes of level d < Levels(), in the order they were
// reached or, after CompleteAscending, ascending. The slice is the
// layering's own: a caller may reorder it, which changes what Level(d)
// returns and nothing else.
func (l *Layering) Level(d int) []Node { return l.queue[l.starts[d]:l.starts[d+1]] }

// Dist returns the levels so far, INF for the nodes not reached yet.
func (l *Layering) Dist() []int32 { return l.dist }

// Reads returns the adjacency entries the layering has read so far.
func (l *Layering) Reads() int { return l.reads }

// entriesOf returns the summed degrees of nodes.
func (c *flatCSR) entriesOf(nodes []Node) int {
	entries := 0
	for _, u := range nodes {
		entries += int(c.offsets[u+1] - c.offsets[u])
	}
	return entries
}

// bottomUpStep expands level d bottom-up: every INF node takes level d
// at its first neighbour on level d-1. It also returns the adjacency
// entries it read.
func (c *flatCSR) bottomUpStep(dist []int32, queue []Node, d int32) ([]Node, int) {
	offsets, targets := c.offsets, c.targets
	reads := 0
	for u := range dist {
		if dist[u] != INF {
			continue
		}
		row := targets[offsets[u]:offsets[u+1]]
		reads += len(row)
		for i, w := range row {
			if dist[w] == d-1 {
				dist[u] = d
				queue = append(queue, Node(u))
				reads -= len(row) - i - 1
				break
			}
		}
	}
	return queue, reads
}

// topDownStep expands level d top-down: every frontier node claims its
// INF neighbours.
func (c *flatCSR) topDownStep(frontier []Node, dist []int32, queue []Node, d int32) []Node {
	offsets, targets := c.offsets, c.targets
	for _, u := range frontier {
		for _, w := range targets[offsets[u]:offsets[u+1]] {
			if dist[w] == INF {
				dist[w] = d
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// topDownCounting is topDownStep that also counts the frontier's entries
// landing on the new level d. It enqueues without a branch: every entry
// is written to the queue's next free slot, which only a newly reached
// node claims, so queue needs one spare slot of capacity beyond the
// nodes it can ever hold (Arena.Queue keeps one).
func (c *flatCSR) topDownCounting(frontier []Node, dist []int32, queue []Node, d int32) ([]Node, int32) {
	x, n := int32(0), len(queue)
	q := queue[:cap(queue)]
	for _, u := range frontier {
		for _, w := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			dw := dist[w]
			q[n] = w
			n += int(b2i(dw == INF))
			dw = min(dw, d) // INF is the largest level
			dist[w] = dw
			x += b2i(dw == d)
		}
	}
	return q[:n], x
}

// entriesTo counts the adjacency entries of nodes that lead to level and
// returns it with the entries it read, all of the nodes'.
func (c *flatCSR) entriesTo(nodes []Node, dist []int32, level int32) (x int32, reads int) {
	for _, u := range nodes {
		row := c.targets[c.offsets[u]:c.offsets[u+1]]
		reads += len(row)
		for _, w := range row {
			x += b2i(dist[w] == level)
		}
	}
	return x, reads
}

// b2i is 1 for true and 0 for false; the compiler emits a flag move, not
// a branch, which matters in loops whose condition is data-dependent.
func b2i(b bool) int32 {
	var x int32
	if b {
		x = 1
	}
	return x
}
