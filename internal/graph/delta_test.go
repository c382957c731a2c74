package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refApply applies a delta batch to a map-backed reference model
// (edge -> weight, plus a node count) with the same last-wins semantics
// MergeCSR documents, and rebuilds a CSR from scratch through the
// Builder. MergeCSR must match it bit for bit.
type refModel struct {
	n     int
	edges map[[2]Node]float64
}

func newRefModel(g *Graph) *refModel {
	r := &refModel{n: g.NumNodes(), edges: map[[2]Node]float64{}}
	g.EdgesW(func(u, v Node, w float64) bool {
		r.edges[[2]Node{u, v}] = w
		return true
	})
	return r
}

func (r *refModel) apply(ops []Delta) {
	for _, d := range ops {
		if d.Op == DeltaAddNode {
			if int(d.U)+1 > r.n {
				r.n = int(d.U) + 1
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
		if d.Op != DeltaRemoveEdge && int(v)+1 > r.n {
			r.n = int(v) + 1
		}
		switch d.Op {
		case DeltaAddEdge:
			w := d.W
			if w == 0 {
				w = 1
			}
			r.edges[[2]Node{u, v}] = w
		case DeltaSetWeight:
			r.edges[[2]Node{u, v}] = d.W
		case DeltaRemoveEdge:
			delete(r.edges, [2]Node{u, v})
		}
	}
}

// build packs the reference model from scratch. weighted graphs keep
// explicit weights; a model whose weights are all 1 builds unweighted,
// matching MergeCSR's becomes-weighted rule.
func (r *refModel) build() *CSR {
	weighted := false
	for _, w := range r.edges {
		if w != 1 {
			weighted = true
			break
		}
	}
	return r.buildAs(weighted)
}

// buildAs packs the reference model with an explicit weighted flag:
// MergeCSR's weightedness is sticky (a weighted snapshot never reverts,
// even if every weight drifts back to 1), which build's all-ones
// inference cannot express.
func (r *refModel) buildAs(weighted bool) *CSR {
	b := NewBuilder(r.n)
	for e, w := range r.edges {
		if weighted {
			b.SetWeight(e[0], e[1], w)
		} else {
			b.AddEdge(e[0], e[1])
		}
	}
	return NewCSR(b.Build())
}

// csrBitsEqual holds got to want through the accessors — shape, every row's
// neighbors, weights and cached weighted degree, w_G, with every float
// compared by bit pattern so a -0 for a +0 or a differently rounded sum
// cannot pass as equal — and then through the durable image: whatever the
// page layout of either side, AppendCSR must emit the same bytes.
func csrBitsEqual(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.Weighted() != want.Weighted() {
		t.Fatalf("shape (n, m, weighted) = (%d, %d, %v), want (%d, %d, %v)",
			got.NumNodes(), got.NumEdges(), got.Weighted(), want.NumNodes(), want.NumEdges(), want.Weighted())
	}
	for u := Node(0); int(u) < want.NumNodes(); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got.Neighbors(u), want.Neighbors(u))
		}
		if got.Degree(u) != want.Degree(u) {
			t.Fatalf("Degree(%d) = %d, want %d", u, got.Degree(u), want.Degree(u))
		}
		gw, ww := got.NeighborWeights(u), want.NeighborWeights(u)
		if len(gw) != len(ww) {
			t.Fatalf("NeighborWeights(%d) = %v, want %v", u, gw, ww)
		}
		for i := range ww {
			if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
				t.Fatalf("NeighborWeights(%d)[%d] = %v, want %v (bits differ)", u, i, gw[i], ww[i])
			}
		}
		if math.Float64bits(got.WeightedDegree(u)) != math.Float64bits(want.WeightedDegree(u)) {
			t.Fatalf("WeightedDegree(%d) = %v, want %v (bits differ)", u, got.WeightedDegree(u), want.WeightedDegree(u))
		}
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("TotalWeight = %v, want %v (bits differ)", got.TotalWeight(), want.TotalWeight())
	}
	if !bytes.Equal(AppendCSR(nil, got), AppendCSR(nil, want)) {
		t.Fatalf("AppendCSR images differ although every accessor agrees")
	}
}

func randomDeltaGraph(rng *rand.Rand, n int, weighted bool) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				if weighted {
					b.SetWeight(Node(i), Node(j), 0.5+2*rng.Float64())
				} else {
					b.AddEdge(Node(i), Node(j))
				}
			}
		}
	}
	return b.Build()
}

func randomBatch(rng *rand.Rand, n, size int, weighted bool) []Delta {
	var ops []Delta
	for i := 0; i < size; i++ {
		u := Node(rng.Intn(n + 3)) // occasionally beyond the node count
		v := Node(rng.Intn(n + 3))
		switch rng.Intn(5) {
		case 0:
			ops = append(ops, Delta{Op: DeltaRemoveEdge, U: u, V: v})
		case 1:
			ops = append(ops, Delta{Op: DeltaAddNode, U: Node(rng.Intn(n + 4))})
		case 2:
			w := 1.0
			if weighted {
				w = 0.5 + 2*rng.Float64()
			}
			ops = append(ops, Delta{Op: DeltaSetWeight, U: u, V: v, W: w})
		default:
			ops = append(ops, Delta{Op: DeltaAddEdge, U: u, V: v})
		}
	}
	return ops
}

// TestMergeCSRMatchesRebuild drives random batches (including repeats,
// self-loops, no-op removals, and node growth) through chained MergeCSR
// calls and checks every intermediate snapshot bit-identically against a
// from-scratch rebuild of the reference model.
func TestMergeCSRMatchesRebuild(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		g := randomDeltaGraph(rng, 30, weighted)
		ref := newRefModel(g)
		cur := NewCSR(g)
		for round := 0; round < 25; round++ {
			ops := randomBatch(rng, cur.NumNodes(), 12, weighted)
			next, _ := MergeCSR(cur, ops)
			ref.apply(ops)
			csrBitsEqual(t, next, ref.build())
			cur = next
		}
	}
}

// TestMergeCSRLastWins pins the in-batch normalization: the last op on an
// edge decides its final state, and ops that cancel out leave no residue.
func TestMergeCSRLastWins(t *testing.T) {
	g := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	c := NewCSR(g)
	next, info := MergeCSR(c, []Delta{
		{Op: DeltaAddEdge, U: 0, V: 3},    // insert...
		{Op: DeltaRemoveEdge, U: 0, V: 3}, // ...cancelled
		{Op: DeltaRemoveEdge, U: 1, V: 2}, // remove...
		{Op: DeltaAddEdge, U: 1, V: 2},    // ...re-added: net no-op
		{Op: DeltaSetWeight, U: 0, V: 1, W: 3.5},
		{Op: DeltaSetWeight, U: 0, V: 1, W: 2.0}, // last wins
		{Op: DeltaRemoveEdge, U: 2, V: 2},        // self-loop ignored
		{Op: DeltaRemoveEdge, U: 0, V: 2},        // absent: no-op
	})
	if len(info.Inserted) != 0 || len(info.Removed) != 0 {
		t.Fatalf("connectivity residue should be empty: %+v", info)
	}
	if info.WeightsChanged != 1 {
		t.Fatalf("WeightsChanged = %d, want 1", info.WeightsChanged)
	}
	if w, ok := next.edgeWeightOf(0, 1); !ok || w != 2.0 {
		t.Fatalf("weight(0,1) = %v,%v want 2,true", w, ok)
	}
	if !next.HasEdge(1, 2) || next.HasEdge(0, 3) {
		t.Fatal("edge set wrong after cancelling ops")
	}
	if next.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", next.NumEdges())
	}
}

// TestMergeCSRBecomesWeighted: merging a non-unit weight into an
// unweighted snapshot upgrades it, with old edges at weight 1.
func TestMergeCSRBecomesWeighted(t *testing.T) {
	c := NewCSR(FromEdges(3, [][2]Node{{0, 1}, {1, 2}}))
	if c.Weighted() {
		t.Fatal("precondition: unweighted")
	}
	next, _ := MergeCSR(c, []Delta{{Op: DeltaSetWeight, U: 0, V: 2, W: 2.5}})
	if !next.Weighted() {
		t.Fatal("snapshot should become weighted")
	}
	if w, _ := next.edgeWeightOf(0, 1); w != 1 {
		t.Fatalf("old edge weight = %v, want 1", w)
	}
	if next.TotalWeight() != 4.5 {
		t.Fatalf("TotalWeight = %v, want 4.5", next.TotalWeight())
	}
	// Unit-weight merges must NOT upgrade.
	next2, _ := MergeCSR(c, []Delta{{Op: DeltaAddEdge, U: 0, V: 2}})
	if next2.Weighted() {
		t.Fatal("unit-weight insert should keep the snapshot unweighted")
	}
}

// TestUpdateComponentsMatchesFlood chains random batches and checks the
// incrementally maintained partition against a full re-flood each round.
func TestUpdateComponentsMatchesFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDeltaGraph(rng, 40, false)
	cur := NewCSR(g)
	compID, comps := cur.Components()
	for round := 0; round < 30; round++ {
		ops := randomBatch(rng, cur.NumNodes(), 10, false)
		next, info := MergeCSR(cur, ops)
		oldComps := comps
		var carried []int32
		compID, comps, carried, _ = UpdateComponents(next, compID, len(comps), info)
		wantID, wantComps := next.Components()
		if !reflect.DeepEqual(compID, wantID) {
			t.Fatalf("round %d: compID mismatch\n got %v\nwant %v", round, compID, wantID)
		}
		if !reflect.DeepEqual(comps, wantComps) {
			t.Fatalf("round %d: comps mismatch\n got %v\nwant %v", round, comps, wantComps)
		}
		checkCarried(t, cur, next, oldComps, comps, carried, info)
		cur = next
	}
}

// checkCarried verifies the carried contract: a carried component is a
// verbatim continuation — same members, same adjacency, same weights —
// and a component overlapping any edge the batch changed is never carried.
func checkCarried(t *testing.T, old, next *CSR, oldComps, comps [][]Node, carried []int32, info *MergeInfo) {
	t.Helper()
	if len(carried) != len(comps) {
		t.Fatalf("carried has %d entries for %d components", len(carried), len(comps))
	}
	touched := make(map[Node]bool)
	for _, es := range [][][2]Node{info.Inserted, info.Removed, info.WeightEdges} {
		for _, e := range es {
			touched[e[0]], touched[e[1]] = true, true
		}
	}
	for id, from := range carried {
		if from < 0 {
			continue
		}
		if !reflect.DeepEqual(comps[id], oldComps[from]) {
			t.Fatalf("carried comp %d: members %v != old comp %d members %v", id, comps[id], from, oldComps[from])
		}
		for _, u := range comps[id] {
			if touched[u] {
				t.Fatalf("carried comp %d contains node %d with a changed edge", id, u)
			}
			if !reflect.DeepEqual(next.Neighbors(u), old.Neighbors(u)) {
				t.Fatalf("carried comp %d: node %d adjacency changed across merge", id, u)
			}
			ow, nw := old.NeighborWeights(u), next.NeighborWeights(u)
			for i := range next.Neighbors(u) {
				wOld, wNew := 1.0, 1.0
				if ow != nil {
					wOld = ow[i]
				}
				if nw != nil {
					wNew = nw[i]
				}
				if wOld != wNew {
					t.Fatalf("carried comp %d: node %d weight[%d] changed %v -> %v", id, u, i, wOld, wNew)
				}
			}
		}
	}
}

// TestUpdateComponentsRefloodScope pins the incremental contract: inserts
// re-flood nothing, and removals re-flood only the affected component.
func TestUpdateComponentsRefloodScope(t *testing.T) {
	// Three components: a path 0-1-2-3, a triangle 4-5-6, a pair 7-8.
	g := FromEdges(9, [][2]Node{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}, {7, 8}})
	cur := NewCSR(g)
	compID, comps := cur.Components()
	if len(comps) != 3 {
		t.Fatalf("want 3 components, got %d", len(comps))
	}

	// Insert-only batch: joins the pair to the path, refloods nothing.
	next, info := MergeCSR(cur, []Delta{{Op: DeltaAddEdge, U: 3, V: 7}})
	compID, comps, _, reflooded := UpdateComponents(next, compID, len(comps), info)
	if reflooded != 0 {
		t.Fatalf("insert-only batch reflooded %d nodes, want 0", reflooded)
	}
	if len(comps) != 2 {
		t.Fatalf("want 2 components after union, got %d", len(comps))
	}

	// Removal inside the triangle: refloods exactly the triangle (3 nodes),
	// never the 6-node path+pair component.
	cur = next
	next, info = MergeCSR(cur, []Delta{{Op: DeltaRemoveEdge, U: 4, V: 5}})
	compID, comps, _, reflooded = UpdateComponents(next, compID, len(comps), info)
	if reflooded != 3 {
		t.Fatalf("triangle removal reflooded %d nodes, want 3", reflooded)
	}
	if len(comps) != 2 {
		t.Fatalf("triangle minus one edge stays connected; want 2 components, got %d", len(comps))
	}

	// A splitting removal: cutting 2-3 splits the big component; only its
	// 6 nodes are reflooded.
	cur = next
	next, info = MergeCSR(cur, []Delta{{Op: DeltaRemoveEdge, U: 2, V: 3}})
	_, comps, _, reflooded = UpdateComponents(next, compID, len(comps), info)
	if reflooded != 6 {
		t.Fatalf("split removal reflooded %d nodes, want 6", reflooded)
	}
	if len(comps) != 3 {
		t.Fatalf("want 3 components after split, got %d", len(comps))
	}
	wantID, wantComps := next.Components()
	if !reflect.DeepEqual(comps, wantComps) {
		t.Fatalf("comps mismatch after split:\n got %v\nwant %v (ids %v)", comps, wantComps, wantID)
	}
}

// TestUpdateComponentsNewNodes: explicit and implicit node growth produce
// singletons that join components through inserted edges.
func TestUpdateComponentsNewNodes(t *testing.T) {
	cur := NewCSR(FromEdges(2, [][2]Node{{0, 1}}))
	compID, comps := cur.Components()
	next, info := MergeCSR(cur, []Delta{
		{Op: DeltaAddNode, U: 4},       // isolated: nodes 2,3,4 appear
		{Op: DeltaAddEdge, U: 1, V: 5}, // implicit growth to 6 nodes
		{Op: DeltaAddEdge, U: 2, V: 3}, // two new nodes joined together
	})
	if info.NodesAdded != 4 {
		t.Fatalf("NodesAdded = %d, want 4", info.NodesAdded)
	}
	compID, comps, _, reflooded := UpdateComponents(next, compID, len(comps), info)
	if reflooded != 0 {
		t.Fatalf("growth batch reflooded %d nodes, want 0", reflooded)
	}
	wantID, wantComps := next.Components()
	if !reflect.DeepEqual(compID, wantID) || !reflect.DeepEqual(comps, wantComps) {
		t.Fatalf("partition mismatch:\n got %v %v\nwant %v %v", compID, comps, wantID, wantComps)
	}
}

// TestUpdateComponentsCarried pins the carried map directly: untouched
// components survive any mix of inserts, removals, weight changes, and
// node growth elsewhere in the graph, and every kind of touch — including
// ones that keep a component's id and membership — clears the flag.
func TestUpdateComponentsCarried(t *testing.T) {
	// Four components: path 0-1-2, triangle 3-4-5, pair 6-7, pair 8-9.
	g := FromEdges(10, [][2]Node{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}, {6, 7}, {8, 9}})
	cur := NewCSR(g)
	compID, comps := cur.Components()
	if len(comps) != 4 {
		t.Fatalf("want 4 components, got %d", len(comps))
	}

	// Batch touches the path (insert chord 0-2), the triangle (weight
	// change), and grows an isolated node; both pairs must carry.
	next, info := MergeCSR(cur, []Delta{
		{Op: DeltaAddEdge, U: 0, V: 2},
		{Op: DeltaSetWeight, U: 3, V: 4, W: 5},
		{Op: DeltaAddNode, U: 10},
	})
	oldComps := comps
	compID, comps, carried, _ := UpdateComponents(next, compID, len(comps), info)
	checkCarried(t, cur, next, oldComps, comps, carried, info)
	want := []int32{-1, -1, 2, 3, -1} // path touched, triangle touched, pairs carried, singleton new
	if !reflect.DeepEqual(carried, want) {
		t.Fatalf("carried = %v, want %v", carried, want)
	}

	// A removal that splits a component: the fragments are not carried,
	// everything else is.
	cur = next
	next, info = MergeCSR(cur, []Delta{{Op: DeltaRemoveEdge, U: 6, V: 7}})
	oldComps = comps
	_, comps, carried, _ = UpdateComponents(next, compID, len(comps), info)
	checkCarried(t, cur, next, oldComps, comps, carried, info)
	if len(comps) != 6 {
		t.Fatalf("want 6 components after split, got %d", len(comps))
	}
	carriedCount := 0
	for _, from := range carried {
		if from >= 0 {
			carriedCount++
		}
	}
	if carriedCount != 4 { // path, triangle, pair 8-9, singleton 10
		t.Fatalf("carried = %v, want exactly 4 carried components", carried)
	}
}

// islandGraph builds n nodes as rings of island consecutive nodes with a
// few random chords each: many components, and long runs of rows that a
// sparse batch leaves untouched.
func islandGraph(rng *rand.Rand, n, island int, weighted bool) *Graph {
	b := NewBuilder(n)
	add := func(u, v int) {
		if weighted {
			b.SetWeight(Node(u), Node(v), 0.25+3*rng.Float64())
		} else {
			b.AddEdge(Node(u), Node(v))
		}
	}
	for base := 0; base < n; base += island {
		size := min(island, n-base)
		for i := 0; i+1 < size; i++ {
			add(base+i, base+i+1)
		}
		if size > 2 {
			add(base, base+size-1)
		}
		for k := 0; k < size/8; k++ {
			if u, v := rng.Intn(size), rng.Intn(size); u != v {
				add(base+u, base+v)
			}
		}
	}
	return b.Build()
}

// mergeStep is one differential round shared by the span-boundary tests:
// it merges ops into cur, checks the packed arrays bit for bit against a
// from-scratch pack of the reference model, that cur itself was left
// alone, and that the incremental partition equals a full re-flood.
func mergeStep(t *testing.T, cur *CSR, ref *refModel, compID []int32, comps [][]Node, ops []Delta) (*CSR, []int32, [][]Node) {
	t.Helper()
	before := AppendCSR(nil, cur)
	next, info := MergeCSR(cur, ops)
	if !bytes.Equal(AppendCSR(nil, cur), before) {
		t.Fatalf("MergeCSR wrote into the snapshot it merged")
	}

	ref.apply(ops)
	weighted := cur.Weighted()
	for _, w := range ref.edges {
		weighted = weighted || w != 1
	}
	csrBitsEqual(t, next, ref.buildAs(weighted))
	if want := ref.n - cur.NumNodes(); info.NodesAdded != want {
		t.Fatalf("NodesAdded = %d, want %d", info.NodesAdded, want)
	}

	newID, newComps, carried, _ := UpdateComponents(next, compID, len(comps), info)
	checkCarried(t, cur, next, comps, newComps, carried, info)
	wantID, wantComps := next.Components()
	if !reflect.DeepEqual(newID, wantID) || !reflect.DeepEqual(newComps, wantComps) {
		t.Fatalf("incremental partition differs from a re-flood")
	}
	return next, newID, newComps
}

// TestMergeCSRSpanBoundaries pins the edges of the row copy inside a
// rebuilt page on a graph large enough to have long untouched runs (and
// three row pages; TestMergeCSRPageBoundaries pins the page edges): each
// sparse batch is merged into an unweighted and a weighted 600-node
// snapshot and compared bit for bit with a from-scratch pack.
func TestMergeCSRSpanBoundaries(t *testing.T) {
	const n, island = 600, 40
	cases := []struct {
		name string
		ops  func(c *CSR) []Delta
	}{
		{"row 0", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddEdge, U: 0, V: 300}}
		}},
		{"last row", func(*CSR) []Delta {
			return []Delta{{Op: DeltaRemoveEdge, U: n - 2, V: n - 1}, {Op: DeltaSetWeight, U: n - 1, V: 17, W: 1}}
		}},
		{"row 0 and last row", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddEdge, U: n - 1, V: 0}}
		}},
		{"adjacent rows", func(*CSR) []Delta {
			return []Delta{
				{Op: DeltaRemoveEdge, U: 200, V: 201},
				{Op: DeltaRemoveEdge, U: 202, V: 201},
				{Op: DeltaRemoveEdge, U: 202, V: 203},
				{Op: DeltaAddEdge, U: 203, V: 205},
			}
		}},
		{"row emptied to degree 0", func(c *CSR) []Delta {
			var ops []Delta
			for _, v := range c.Neighbors(77) {
				ops = append(ops, Delta{Op: DeltaRemoveEdge, U: 77, V: v})
			}
			return ops
		}},
		{"new nodes with isolated gaps", func(*CSR) []Delta {
			return []Delta{
				{Op: DeltaAddEdge, U: n + 5, V: 3},
				{Op: DeltaAddEdge, U: n + 7, V: n + 8},
				{Op: DeltaAddNode, U: n + 11},
			}
		}},
		{"node growth only", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddNode, U: n + 2}, {Op: DeltaRemoveEdge, U: 1, V: 300}}
		}},
		{"delete only", func(*CSR) []Delta {
			return []Delta{
				{Op: DeltaRemoveEdge, U: 10, V: 11},
				{Op: DeltaRemoveEdge, U: 301, V: 300},
				{Op: DeltaRemoveEdge, U: n - 2, V: n - 1},
			}
		}},
		// On the unweighted base this is the unweighted→weighted
		// transition: the reference pack holds 1 at every untouched entry.
		{"one non-unit weight", func(*CSR) []Delta {
			return []Delta{{Op: DeltaSetWeight, U: 250, V: 251, W: 2.5}}
		}},
	}
	for _, weighted := range []bool{false, true} {
		g := islandGraph(rand.New(rand.NewSource(3)), n, island, weighted)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/weighted=%v", tc.name, weighted), func(t *testing.T) {
				base := NewCSR(g)
				compID, comps := base.Components()
				mergeStep(t, base, newRefModel(g), compID, comps, tc.ops(base))
			})
		}
	}
}

// TestMergeCSRSparseBatchesDifferential chains sparse random batches —
// drawn to land on the first and last rows, on adjacent rows, and beyond
// the node count — through a 500+-node snapshot, checking every round.
func TestMergeCSRSparseBatchesDifferential(t *testing.T) {
	const island = 32
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(19))
		g := islandGraph(rng, 520, island, weighted)
		cur, ref := NewCSR(g), newRefModel(g)
		compID, comps := cur.Components()
		for round := 0; round < 150; round++ {
			n := cur.NumNodes()
			pick := func() Node {
				switch rng.Intn(8) {
				case 0:
					return 0
				case 1:
					return Node(n - 1)
				case 2:
					return Node(n + rng.Intn(4)) // grows the graph, leaving gaps
				}
				return Node(rng.Intn(n))
			}
			var ops []Delta
			for k := 1 + rng.Intn(5); k > 0; k-- {
				u := pick()
				v := u + 1 // mostly ring edges: adjacent rows, present edges
				if rng.Intn(3) == 0 {
					v = pick()
				}
				d := Delta{Op: DeltaOp(rng.Intn(4)), U: u, V: v}
				if weighted || (!cur.Weighted() && round == 100) {
					d.W = 0.5 + 2*rng.Float64()
				} else if d.Op == DeltaSetWeight {
					d.W = 1
				}
				ops = append(ops, d)
			}
			cur, compID, comps = mergeStep(t, cur, ref, compID, comps, ops)
		}
	}
}

// TestMergeCSRNoOpReturnsInput: a batch that normalizes away against the
// snapshot and adds no node allocates no successor — the input comes back.
func TestMergeCSRNoOpReturnsInput(t *testing.T) {
	c := NewCSR(FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}}))
	next, info := MergeCSR(c, []Delta{
		{Op: DeltaAddEdge, U: 1, V: 0},    // present, same weight
		{Op: DeltaRemoveEdge, U: 0, V: 3}, // absent
		{Op: DeltaAddEdge, U: 0, V: 2},    // inserted...
		{Op: DeltaRemoveEdge, U: 2, V: 0}, // ...and cancelled
		{Op: DeltaAddNode, U: 3},          // already there
	})
	if next != c {
		t.Fatal("empty residue without growth must return the input snapshot")
	}
	if info.NodesAdded != 0 || len(info.Inserted)+len(info.Removed)+len(info.WeightEdges) != 0 {
		t.Fatalf("residue should be empty: %+v", info)
	}
	if grown, _ := MergeCSR(c, []Delta{{Op: DeltaAddNode, U: 4}}); grown == c || grown.NumNodes() != 5 {
		t.Fatal("node growth must produce a new snapshot")
	}
}

// TestUpdateComponentsMemberListsDoNotAlias: the member lists share one
// backing array, so each must be capped at its own length — an append by
// a caller reallocates instead of overwriting the next component.
func TestUpdateComponentsMemberListsDoNotAlias(t *testing.T) {
	cur := NewCSR(FromEdges(7, [][2]Node{{0, 1}, {1, 2}, {3, 4}, {5, 6}}))
	compID, comps := cur.Components()
	next, info := MergeCSR(cur, []Delta{{Op: DeltaRemoveEdge, U: 1, V: 2}})
	_, comps, _, _ = UpdateComponents(next, compID, len(comps), info)
	want := [][]Node{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("comps = %v, want %v", comps, want)
	}
	for id := range comps {
		if cap(comps[id]) != len(comps[id]) {
			t.Fatalf("comp %d: cap %d > len %d leaves room to overwrite its neighbour", id, cap(comps[id]), len(comps[id]))
		}
		_ = append(comps[id], 99)
	}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("append to a member list leaked into another: %v", comps)
	}
}
