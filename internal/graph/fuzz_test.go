package graph

import (
	"bytes"
	"math"
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
		for _, w := range c.weights {
			if !(w >= 0) || math.IsInf(w, 1) {
				t.Fatalf("weight %v survived the parse", w)
			}
		}

		// Round trip. Isolated nodes (tokens seen only in self-loop lines)
		// have no edge to be written, so only the non-isolated count
		// survives; everything else must.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
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
			csrEqual(t, next, built)
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
			// Component ids are history-dependent; membership must agree.
			for u := range wantID {
				for v := range wantID {
					if (compID[u] == compID[v]) != (wantID[u] == wantID[v]) {
						t.Fatalf("nodes %d,%d: incremental and re-flooded partitions disagree", u, v)
					}
				}
			}
			cur, ops = next, ops[:0]
		}

		for i := 0; i+opBytes <= len(data); i += opBytes {
			d := Delta{
				U: Node(data[i+1] % 14),
				V: Node(data[i+2] % 14),
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
