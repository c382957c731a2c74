package graph

import "slices"

// This file is the dynamic-graph substrate: applying a batch of edge/node
// mutations to a snapshot produces the next snapshot by copy-on-write over
// its row pages — the same relabelling-free, order-preserving style as
// SubCSR extraction — instead of round-tripping through a Builder. Only
// the pages that hold a touched row (or a new node) are rebuilt, and
// inside them only the touched rows are re-merged entry by entry; every
// other page is shared with the predecessor by reference, which is safe
// because no page of a snapshot is ever written after MergeCSR returns
// it. The component partition is maintained incrementally on top:
// insertions union existing components, and only components that
// actually lost an edge are re-flooded.
//
// Cost of one batch on an n-node, m-edge snapshot with k components:
// MergeCSR computes O(b log b + Σ deg of touched rows) for b ops, copies
// the n/pageRows page headers, and allocates and fills only the touched
// pages — memory proportional to the batch, not to the graph. Two cases
// still read or write everything: a weighted snapshot re-sums w_G in one
// read-only pass over all pages, because float addition is
// order-sensitive and the sum must visit every term in Builder.Build's
// order (per-page partial sums would regroup it); and the batch that
// turns an unweighted snapshot weighted rewrites every page with explicit
// unit weights. UpdateComponents computes O(b + k) on the group forest
// plus the re-flood of components that lost an edge, then labels the n
// nodes and lays the member lists out in three closure-free passes over
// flat arrays — compID and the member lists are still O(n) per batch.

// DeltaOp enumerates the mutation kinds a Delta can carry.
type DeltaOp uint8

const (
	// DeltaAddEdge inserts the undirected edge (U,V) with weight W (0 means
	// the default weight 1). If the edge already exists its weight is
	// overwritten — within a batch, as in the Builder, the last record of
	// an edge wins.
	DeltaAddEdge DeltaOp = iota
	// DeltaRemoveEdge deletes the undirected edge (U,V). Removing an absent
	// edge is a no-op.
	DeltaRemoveEdge
	// DeltaSetWeight sets the weight of edge (U,V) to W, inserting the edge
	// if absent.
	DeltaSetWeight
	// DeltaAddNode ensures node U exists, growing the node count to U+1.
	// Edge deltas grow the node count implicitly the same way; an explicit
	// DeltaAddNode adds an isolated node.
	DeltaAddNode
)

// Delta is one graph mutation. Batches of deltas are applied atomically by
// MergeCSR; op order within a batch only matters for repeats of the same
// edge (last wins).
type Delta struct {
	Op   DeltaOp
	U, V Node
	W    float64
}

// MergeInfo is the connectivity-relevant residue of a batch after
// normalizing it against the snapshot it was applied to: which edges were
// actually inserted (absent before, present after) and actually removed
// (present before, absent after), plus bookkeeping counts. Ops that
// cancel out within the batch, re-adds of existing edges, and removals of
// absent edges leave no trace here. UpdateComponents consumes it to
// maintain the component partition incrementally.
type MergeInfo struct {
	Inserted       [][2]Node // now present, previously absent; u < v, sorted
	Removed        [][2]Node // now absent, previously present; u < v, sorted
	WeightEdges    [][2]Node // present before and after with a changed weight; u < v, sorted
	WeightsChanged int       // existing edges whose weight changed (== len(WeightEdges))
	NodesAdded     int       // node-count growth (explicit and implicit)
}

// edgeWeightOf returns the weight of edge (u,v) in the snapshot and
// whether the edge exists (binary search over the sorted packed adjacency).
func (c *CSR) edgeWeightOf(u, v Node) (float64, bool) {
	if int(u) >= c.NumNodes() || int(v) >= c.NumNodes() || u < 0 || v < 0 {
		return 0, false
	}
	adj := c.Neighbors(u)
	if d := c.Neighbors(v); len(d) < len(adj) {
		adj, u, v = d, v, u
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(adj) || adj[lo] != v {
		return 0, false
	}
	if !c.weighted {
		return 1, true
	}
	return c.NeighborWeights(u)[lo], true
}

// HasEdge reports whether the undirected edge (u,v) is present in the
// snapshot.
func (c *CSR) HasEdge(u, v Node) bool {
	_, ok := c.edgeWeightOf(u, v)
	return ok
}

// edgeEdit is one edge op of a batch, reduced to the state it leaves the
// edge in. Edits are stably sorted by (u, v), so the last edit of each
// edge — the one that wins — closes its group.
type edgeEdit struct {
	u, v    Node // u < v
	w       float64
	present bool
}

// dirKind says what a dirOp does to its row.
type dirKind uint8

const (
	dirInsert   dirKind = iota // dst absent from the row: emit it
	dirDelete                  // dst present in the row: drop it
	dirReweight                // dst present in the row: re-emit with the new weight
)

// dirOp is one directed half of an edge whose final state differs from
// the snapshot; sorted by (src, dst) they drive the per-row merge.
type dirOp struct {
	src, dst Node
	w        float64
	kind     dirKind
}

// MergeCSR applies a batch of deltas to c and returns the merged snapshot
// plus the normalized residue of the batch. c itself is never modified —
// readers holding it keep a consistent view — and the merged snapshot
// shares with c every page the residue leaves alone. A page is rebuilt
// when it holds a touched row, when the node count grows into it, or (all
// of them) when the batch turns an unweighted snapshot weighted; inside a
// rebuilt page the touched rows are re-merged with their sorted ops and
// the other rows are copied. A batch whose residue is empty and that adds
// no node returns c itself.
//
// The result is bit-identical to a from-scratch Builder.Build pack of the
// same graph. An untouched row keeps its entries, and its wdeg is the sum
// Build would form from the same weights in the same order (the plain degree,
// exactly, when every weight is 1 — which also covers rows carried across
// the unweighted→weighted transition). A touched row's wdeg is re-summed
// in ascending-neighbor order. w_G is the edge count on an unweighted
// result and is otherwise re-summed over the merged arrays in Build's
// ascending-node, ascending-neighbor order.
//
// Semantics per edge (u ≠ v; self-loops are ignored like Builder.AddEdge):
// the batch is normalized last-wins, then inserts add the edge with the
// given weight (DeltaAddEdge with W=0 means 1), removes drop it, and
// weight updates rewrite the packed weight in place. A previously
// unweighted snapshot becomes weighted the first time any edge ends up
// with a non-unit weight. Endpoints beyond the current node count grow
// the graph (DeltaRemoveEdge never grows it).
func MergeCSR(c *CSR, ops []Delta) (*CSR, *MergeInfo) {
	oldN := c.NumNodes()
	newN := oldN
	edits := make([]edgeEdit, 0, len(ops))
	for _, d := range ops {
		if d.Op == DeltaAddNode {
			if int(d.U)+1 > newN && d.U >= 0 {
				newN = int(d.U) + 1
			}
			continue
		}
		u, v := d.U, d.V
		if u == v || u < 0 || v < 0 {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if d.Op != DeltaRemoveEdge && int(v)+1 > newN {
			newN = int(v) + 1
		}
		e := edgeEdit{u: u, v: v}
		switch d.Op {
		case DeltaAddEdge:
			e.present, e.w = true, d.W
			if e.w == 0 {
				e.w = 1
			}
		case DeltaSetWeight:
			e.present, e.w = true, d.W
		case DeltaRemoveEdge:
		default:
			continue // unknown op: the edge keeps whatever state it has
		}
		edits = append(edits, e)
	}
	slices.SortStableFunc(edits, func(a, b edgeEdit) int {
		if a.u != b.u {
			return int(a.u - b.u)
		}
		return int(a.v - b.v)
	})

	// Only edges whose final state differs from the snapshot leave a trace:
	// an entry in the residue (already sorted, since edits are) and two
	// directed ops for the row merge.
	info := &MergeInfo{NodesAdded: newN - oldN}
	dir := make([]dirOp, 0, 2*len(edits))
	for i, e := range edits {
		if i+1 < len(edits) && edits[i+1].u == e.u && edits[i+1].v == e.v {
			continue // a later op on the same edge wins
		}
		key := [2]Node{e.u, e.v}
		oldW, existed := c.edgeWeightOf(e.u, e.v)
		var kind dirKind
		switch {
		case e.present && !existed:
			info.Inserted = append(info.Inserted, key)
			kind = dirInsert
		case !e.present && existed:
			info.Removed = append(info.Removed, key)
			kind = dirDelete
		case e.present && existed && e.w != oldW:
			info.WeightEdges = append(info.WeightEdges, key)
			info.WeightsChanged++
			kind = dirReweight
		default:
			continue
		}
		dir = append(dir, dirOp{e.u, e.v, e.w, kind}, dirOp{e.v, e.u, e.w, kind})
	}
	if len(dir) == 0 && newN == oldN {
		return c, info
	}
	slices.SortFunc(dir, func(a, b dirOp) int {
		if a.src != b.src {
			return int(a.src - b.src)
		}
		return int(a.dst - b.dst)
	})

	weighted := c.weighted
	for i := 0; !weighted && i < len(dir); i++ {
		weighted = dir[i].kind != dirDelete && dir[i].w != 1
	}
	m := &CSR{
		pages:    make([]page, (newN+pageMask)>>pageShift),
		n:        newN,
		entries:  c.entries + 2*(len(info.Inserted)-len(info.Removed)),
		weighted: weighted,
	}
	copy(m.pages, c.pages)
	grown := len(m.pages) // first page the node count grows into
	if newN > oldN {
		grown = oldN >> pageShift
	}
	for p, di := 0, 0; p < len(m.pages); p++ {
		first := di
		for di < len(dir) && int(dir[di].src)>>pageShift == p {
			di++
		}
		if di > first || p >= grown || weighted != c.weighted {
			var old page // no rows: a page past c's last
			if p < len(c.pages) {
				old = c.pages[p]
			}
			m.pages[p] = mergePage(&old, min(pageRows, newN-p<<pageShift), dir[first:di], weighted)
		}
	}

	if !weighted {
		m.totalW = float64(m.NumEdges())
		return m, info
	}
	for u := Node(0); int(u) < newN; u++ {
		ws := m.NeighborWeights(u)
		for i, v := range m.Neighbors(u) {
			if u < v {
				m.totalW += ws[i]
			}
		}
	}
	return m, info
}

// mergePage builds the successor of page c: rows rows (at least c's), the
// page's share of the batch's sorted ops applied, explicit weights iff
// weighted. Untouched rows are copied, touched ones re-merged with their
// ops; c is only read and the result shares nothing with it.
func mergePage(c *page, rows int, ops []dirOp, weighted bool) page {
	oldRows := len(c.wdeg)
	room := len(ops) // an op adds at most one entry
	if oldRows > 0 {
		room += int(c.offsets[oldRows] - c.offsets[0])
	}
	// offsets and targets share one allocation: fewer long-lived small
	// objects pinning heap spans between versions.
	ints := make([]int32, rows+1+room)
	m := page{offsets: ints[: rows+1 : rows+1], targets: ints[rows+1:], wdeg: make([]float64, rows)}
	if weighted {
		m.weights = make([]float64, room)
	}
	copy(m.wdeg, c.wdeg)
	pos, di := 0, 0 // write cursor into the page's entries; next op
	for u := 0; u < rows; u++ {
		m.offsets[u] = int32(pos)
		var lo, hi int32 // u's not yet merged old entries; none for a new node
		if u < oldRows {
			lo, hi = c.offsets[u], c.offsets[u+1]
		}
		first := di
		for ; di < len(ops) && int(ops[di].src)&pageMask == u; di++ {
			op := ops[di]
			run := lo
			for run < hi && c.targets[run] < op.dst {
				run++
			}
			pos = m.copyRun(c, pos, lo, run)
			lo = run
			if op.kind != dirInsert {
				lo++ // op.dst sits at run: dropped, or re-emitted below
			}
			if op.kind != dirDelete {
				m.targets[pos] = op.dst
				if weighted {
					m.weights[pos] = op.w
				}
				pos++
			}
		}
		pos = m.copyRun(c, pos, lo, hi)
		if di == first {
			continue // untouched: the copied wdeg stands
		}
		start := int(m.offsets[u])
		d := float64(pos - start)
		if weighted {
			d = 0
			for _, w := range m.weights[start:pos] {
				d += w
			}
		}
		m.wdeg[u] = d
	}
	m.offsets[rows] = int32(pos)
	m.targets = m.targets[:pos]
	if weighted {
		m.weights = m.weights[:pos]
	}
	return m
}

// copyRun copies c's entries [lo,hi) to position pos of m — targets
// always, weights when m carries them (ones where c does not) — and
// returns the position after the run.
func (m *page) copyRun(c *page, pos int, lo, hi int32) int {
	n := copy(m.targets[pos:], c.targets[lo:hi])
	if m.weights != nil {
		if c.weights != nil {
			copy(m.weights[pos:], c.weights[lo:hi])
		} else {
			ws := m.weights[pos : pos+n]
			for i := range ws {
				ws[i] = 1
			}
		}
	}
	return pos + n
}

// UpdateComponents maintains the connected-component partition across one
// merge: c is the merged snapshot, oldCompID/numOldComps the partition of
// the pre-merge snapshot, and info the merge residue. Insertions union
// the endpoint components in near-constant time; only components that
// actually lost an edge are re-flooded (a removal may split one into
// many). New nodes start as singletons and join components through their
// inserted edges. refloodedNodes counts exactly the nodes visited by
// re-flooding — an insert-only batch reports 0, and a batch with
// removals reports at most the sizes of the post-union components the
// removals landed in (a removal inside a group the batch also merged
// re-floods the whole merged group).
//
// The returned partition is in canonical form: component ids are assigned
// in first-seen ascending-node order and each member list is sorted, the
// same invariants a from-scratch flood produces. The member lists are
// sub-slices of one backing array, each capped at its own length, so an
// append to one can never write into its neighbour.
//
// carried maps each new component id to the old component id it is a
// verbatim continuation of, or -1. carried[id] == r guarantees that new
// component id has exactly the member set, adjacency, and edge weights of
// old component r: no edge incident to the component was inserted,
// removed, or re-weighted by the batch, and no node joined or left it.
// Callers use this to preserve per-component version stamps (and anything
// keyed by them — cached results, sub-CSRs) across a merge.
func UpdateComponents(c *CSR, oldCompID []int32, numOldComps int, info *MergeInfo) (compID []int32, comps [][]Node, carried []int32, refloodedNodes int) {
	n := c.NumNodes()
	oldN := len(oldCompID)
	groups := numOldComps + (n - oldN) // old components + new-node singletons
	parent := make([]int32, groups)
	for i := range parent {
		parent[i] = int32(i)
	}
	groupOf := func(u Node) int32 {
		if int(u) < oldN {
			return oldCompID[u]
		}
		return int32(numOldComps + int(u) - oldN)
	}
	for _, e := range info.Inserted {
		ru, rv := findRoot(parent, groupOf(e[0])), findRoot(parent, groupOf(e[1]))
		if ru != rv {
			parent[rv] = ru
		}
	}
	// Resolve every group's root once, so the per-node passes below read
	// parent as a flat group -> root table.
	for g := range parent {
		parent[g] = findRoot(parent, int32(g))
	}
	// Mark after all unions so the dirty bit lands on the final root: a
	// removal inside a group that an insertion also merged must dirty the
	// whole merged group. touched marks every root whose component's edge
	// set changed in any way — such groups can never be carried, even when
	// they keep their id and membership (e.g. a weight update or an
	// inserted chord inside one component).
	dirty := make([]bool, groups)
	touched := make([]bool, groups)
	for _, e := range info.Inserted {
		touched[parent[groupOf(e[0])]] = true
	}
	for _, e := range info.Removed {
		r := parent[groupOf(e[0])]
		dirty[r] = true
		touched[r] = true
	}
	for _, e := range info.WeightEdges {
		touched[parent[groupOf(e[0])]] = true
	}

	// Provisional component ids, written straight into compID: every node
	// starts at its group's root; dirty groups are then re-flooded into
	// fresh ids starting at groups. Edges of the merged snapshot never
	// cross group boundaries (kept edges stay within an old component,
	// inserted edges were unioned), so each flood is confined to its dirty
	// group by construction and a neighbour still labelled with the root is
	// exactly one the flood has not reached.
	compID = make([]int32, n)
	for u, g := range oldCompID {
		compID[u] = parent[g]
	}
	for u := oldN; u < n; u++ {
		compID[u] = parent[numOldComps+u-oldN]
	}
	next := int32(groups)
	if len(info.Removed) > 0 {
		var queue []Node
		for u := 0; u < n; u++ {
			r := compID[u]
			if r >= int32(groups) || !dirty[r] {
				continue
			}
			compID[u] = next
			queue = append(queue[:0], Node(u))
			for head := 0; head < len(queue); head++ {
				for _, w := range c.Neighbors(queue[head]) {
					if compID[w] == r {
						compID[w] = next
						queue = append(queue, w)
					}
				}
			}
			refloodedNodes += len(queue)
			next++
		}
	}

	// Renumber provisional ids into first-seen ascending-node order and
	// count each component's members. Both this pass and the fill below
	// advance by runs of consecutive nodes with the same id — components
	// are mostly contiguous id ranges, and a per-node counter increment
	// would serialise on the one counter a run keeps hitting. A carried
	// component is a clean untouched old group: its provisional id is still
	// an old root (< numOldComps), nothing was unioned into it (that would
	// have marked it touched), and none of its edges changed.
	table := make([]int32, next) // provisional id -> canonical id + 1; 0 = unseen
	ends := make([]int32, next)  // canonical id -> member count
	carried = make([]int32, 0, next)
	for u := 0; u < n; {
		p := compID[u]
		id := table[p] - 1
		if id < 0 {
			id = int32(len(carried))
			table[p] = id + 1
			if p < int32(numOldComps) && !touched[p] {
				carried = append(carried, p)
			} else {
				carried = append(carried, -1)
			}
		}
		run := u
		for ; u < n && compID[u] == p; u++ {
			compID[u] = id
		}
		ends[id] += int32(u - run)
	}

	return compID, memberLists(compID, ends[:len(carried)]), carried, refloodedNodes
}

// memberLists lays out the member list of every component of a canonical
// labelling in one backing array: sizes[id] is component id's member
// count on entry (it is consumed as the fill cursor). The counts become
// start cursors, then each run of consecutive nodes with the same id is
// dropped at its component's cursor — ascending u, so every list comes
// out sorted. Each list is capped at its own length, so an append to one
// can never write into its neighbour.
func memberLists(compID []int32, sizes []int32) [][]Node {
	n := len(compID)
	comps := make([][]Node, len(sizes))
	members := make([]Node, n)
	start := int32(0)
	for id := range comps {
		size := sizes[id]
		sizes[id] = start
		start += size
		comps[id] = members[start-size : start : start]
	}
	for u := 0; u < n; {
		id := compID[u]
		at := sizes[id]
		for ; u < n && compID[u] == id; u++ {
			members[at] = Node(u)
			at++
		}
		sizes[id] = at
	}
	return comps
}

// findRoot returns the root of x in the union-find forest parent, halving
// the path on the way.
func findRoot(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}
