package graph

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzParseEdgeList feeds arbitrary text through the edge-list parser and
// checks the structural invariants every accepted graph must satisfy,
// plus a write/re-parse round trip. The parser must never panic; inputs
// it rejects are fine.
func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("a b\nb c\nc a\n"))
	f.Add([]byte("# comment\n1 2 0.5\n2 3\n% also comment\n"))
	f.Add([]byte("x y 2.5\ny x 3\nx y\n")) // repeats: last line wins
	f.Add([]byte("u u\nv v\n"))            // self-loops intern but drop
	f.Add([]byte("a b not-a-number\n"))    // rejected weight
	f.Add([]byte("lonely\n"))              // rejected field count
	f.Add([]byte("a b 1e308\nb c -0\n"))
	f.Add([]byte("a b NaN\n")) // rejected: non-finite
	f.Add([]byte("a b 1\nb c -Inf\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep individual executions fast
		}
		g, err := ParseEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}

		// Structural invariants of the packed form: adjacency strictly
		// ascending (sorted, deduplicated, self-loop-free) and degree sum
		// equal to twice the edge count.
		c := NewCSR(g)
		degSum := 0
		for u := 0; u < c.NumNodes(); u++ {
			nbrs := c.Neighbors(Node(u))
			degSum += len(nbrs)
			for i, w := range nbrs {
				if w == Node(u) {
					t.Fatalf("node %d: self-loop survived the parse", u)
				}
				if i > 0 && nbrs[i-1] >= w {
					t.Fatalf("node %d: adjacency not strictly ascending: %v", u, nbrs)
				}
			}
		}
		if degSum != 2*c.NumEdges() {
			t.Fatalf("degree sum %d != 2 * %d edges", degSum, c.NumEdges())
		}
		c.Edges(func(_, _ Node, w float64) bool {
			if !(w >= 0) || math.IsInf(w, 1) {
				t.Fatalf("weight %v survived the parse", w)
			}
			return true
		})

		// Round trip. Isolated nodes (tokens seen only in self-loop lines)
		// have no edge to be written, so only the non-isolated count
		// survives; everything else must. The one graph the parser accepts
		// and the writer must refuse is one with a label the format reads as
		// a comment marker ("0 #": fine as a second token, a comment line
		// once the writer puts it first).
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			for _, l := range g.labels {
				if l[0] == '#' || l[0] == '%' {
					return
				}
			}
			t.Fatalf("writing parsed graph: %v", err)
		}
		g2, err := ParseEdgeList(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-parsing written graph: %v\ninput:\n%s", err, buf.String())
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count: %d -> %d", g.NumEdges(), g2.NumEdges())
		}
		// Weightedness rides on the edge lines, so a graph whose only
		// weighted lines were dropped self-loops can't round-trip the flag.
		if g.NumEdges() > 0 && g2.Weighted() != g.Weighted() {
			t.Fatalf("round trip changed weightedness: %v -> %v", g.Weighted(), g2.Weighted())
		}
		nonIsolated := 0
		for u := 0; u < c.NumNodes(); u++ {
			if c.Degree(Node(u)) > 0 {
				nonIsolated++
			}
		}
		if g2.NumNodes() != nonIsolated {
			t.Fatalf("round trip has %d nodes, want %d non-isolated", g2.NumNodes(), nonIsolated)
		}
		// Same graph, edge for edge: ids may be permuted by re-interning, so
		// edges are keyed by their labels; %g prints a float64 exactly.
		byLabel := make(map[[2]string]float64, g.NumEdges())
		g.EdgesW(func(u, v Node, w float64) bool {
			byLabel[[2]string{g.Label(u), g.Label(v)}] = w
			return true
		})
		g2.EdgesW(func(u, v Node, w float64) bool {
			key := [2]string{g2.Label(u), g2.Label(v)}
			if _, ok := byLabel[key]; !ok {
				key[0], key[1] = key[1], key[0]
			}
			if w1, ok := byLabel[key]; !ok || math.Float64bits(w1) != math.Float64bits(w) {
				t.Fatalf("round trip turned edge %q into weight %v (was %v, present %v)", key, w, w1, ok)
			}
			return true
		})
		// Node ids may be permuted by re-interning, so compare the total
		// weight (order-tolerant) rather than packed arrays. %g printing
		// round-trips float64 exactly; only the summation order differs.
		w1, w2 := c.TotalWeight(), NewCSR(g2).TotalWeight()
		if math.IsInf(w1, 0) || math.IsNaN(w1) {
			return // degenerate weights forfeit the aggregate comparison
		}
		if diff := math.Abs(w1 - w2); diff > 1e-9*math.Max(1, math.Abs(w1)) {
			t.Fatalf("round trip changed total weight: %v -> %v", w1, w2)
		}
	})
}

// fuzzWideIDs spreads FuzzMergeCSR's 14 node ids over five row pages,
// sitting on both sides of every boundary between them.
var fuzzWideIDs = [14]Node{0, 1, 2, 3, 4, 254, 255, 256, 257, 300, 511, 512, 600, 1030}

// FuzzMergeCSR decodes the fuzz input into delta batches, applies them to
// a small base snapshot through MergeCSR, and cross-checks every round
// against the map-backed reference model (packed arrays must match bit
// for bit), the MergeInfo residue, and the incrementally maintained
// component partition.
func FuzzMergeCSR(f *testing.F) {
	f.Add([]byte{0, 1, 2, 8, 1, 1, 2, 0, 2, 3, 4, 16})
	f.Add([]byte{3, 9, 0, 0, 0, 9, 9, 4, 1, 9, 1, 0})
	f.Add([]byte{2, 0, 1, 0, 2, 0, 1, 12, 0, 0, 1, 0})
	// Span boundaries of the merge (op, u, v, 4*w; an odd first byte makes
	// the base weighted): first and last row touched with everything
	// between them one span; adjacent touched rows; a row emptied to
	// degree 0 by a delete-only batch; growth with isolated gaps beyond
	// the old node count; the unweighted→weighted transition.
	f.Add([]byte{0, 0, 4, 4})
	f.Add([]byte{0, 1, 3, 4, 0, 2, 3, 4, 1, 2, 1, 0})
	f.Add([]byte{1, 3, 4, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 2, 9, 4, 3, 13, 0, 0, 0, 11, 12, 4})
	f.Add([]byte{2, 1, 2, 10})
	// Page boundaries (bit 2 of the first byte spreads the 14 ids over
	// fuzzWideIDs): an edge across the 255|256 boundary plus rows 256/257;
	// a page filled and then emptied to all-degree-0; growth that starts
	// mid-page; growth that skips whole pages of isolated nodes;
	// delete-only on a multi-page snapshot; the unweighted→weighted
	// transition once several pages exist (every page rewritten).
	f.Add([]byte{4, 6, 7, 4, 0, 7, 8, 4, 0, 0, 6, 4})
	f.Add([]byte{4, 7, 8, 4, 0, 8, 9, 4, 0, 9, 10, 4, 3, 13, 0, 0, 0, 0, 1, 4, 0, 1, 2, 4, 1, 7, 8, 0, 1, 8, 9, 0, 1, 9, 10, 0})
	f.Add([]byte{7, 9, 0, 0})
	f.Add([]byte{4, 13, 0, 4})
	f.Add([]byte{5, 0, 1, 0, 3, 12, 0, 0, 1, 3, 4, 0})
	f.Add([]byte{4, 13, 0, 4, 0, 12, 11, 4, 3, 9, 0, 0, 0, 5, 6, 4, 0, 7, 8, 4, 0, 2, 3, 4, 2, 7, 8, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		wide := len(data) > 0 && data[0]&4 != 0
		id := func(b byte) Node {
			if wide {
				return fuzzWideIDs[b%14]
			}
			return Node(b % 14)
		}
		b := NewBuilder(5)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(3, 4)
		if len(data) > 0 && data[0]%2 == 1 {
			b.SetWeight(0, 2, 2.5)
		}
		base := b.Build()
		cur := NewCSR(base)
		ref := newRefModel(base)
		compID, comps := cur.Components()

		const opBytes, batchOps = 4, 6
		var ops []Delta
		flush := func() {
			if len(ops) == 0 {
				return
			}
			prevWeighted := cur.Weighted()
			next, info := MergeCSR(cur, ops)
			ref.apply(ops)
			wantWeighted := prevWeighted
			if !wantWeighted {
				// An unweighted snapshot's edges all weigh 1, so any
				// non-unit weight in the model must come from this batch.
				for _, w := range ref.edges {
					if w != 1 {
						wantWeighted = true
						break
					}
				}
			}
			if next.Weighted() != wantWeighted {
				t.Fatalf("merged snapshot weighted=%v, want %v", next.Weighted(), wantWeighted)
			}
			// Builder and merge against each other, and the Builder against
			// the reference pack loop it replaced.
			built := ref.buildAs(wantWeighted)
			csrBitsEqual(t, next, built)
			csrBitsEqual(t, built, ref.refPack(wantWeighted))

			// The residue lists exactly the connectivity changes.
			for _, e := range info.Inserted {
				if cur.HasEdge(e[0], e[1]) || !next.HasEdge(e[0], e[1]) {
					t.Fatalf("Inserted %v is not a fresh edge", e)
				}
			}
			for _, e := range info.Removed {
				if !cur.HasEdge(e[0], e[1]) || next.HasEdge(e[0], e[1]) {
					t.Fatalf("Removed %v was not actually removed", e)
				}
			}

			oldComps := comps
			var carried []int32
			compID, comps, carried, _ = UpdateComponents(next, compID, len(comps), info)
			checkCarried(t, cur, next, oldComps, comps, carried, info)
			wantID, wantComps := next.Components()
			if len(comps) != len(wantComps) {
				t.Fatalf("incremental partition has %d components, re-flood has %d", len(comps), len(wantComps))
			}
			// Both are canonical (ids in first-seen ascending-node order), so
			// the labellings must be equal, not merely equivalent.
			if !slices.Equal(compID, wantID) {
				t.Fatalf("incremental and re-flooded partitions disagree:\n got %v\nwant %v", compID, wantID)
			}
			cur, ops = next, ops[:0]
		}

		for i := 0; i+opBytes <= len(data); i += opBytes {
			d := Delta{
				U: id(data[i+1]),
				V: id(data[i+2]),
				W: float64(data[i+3]) / 4,
			}
			switch data[i] % 4 {
			case 0:
				d.Op = DeltaAddEdge
			case 1:
				d.Op = DeltaRemoveEdge
			case 2:
				d.Op = DeltaSetWeight
			case 3:
				d.Op = DeltaAddNode
			}
			ops = append(ops, d)
			if len(ops) == batchOps {
				flush()
			}
		}
		flush()
	})
}
