package graph

import (
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestParseEdgeListMixedWeights is the regression test for the
// half-weighted-graph bug: a file mixing 2-column and 3-column lines must
// treat every bare line as weight 1.0 — including bare lines that appear
// before the first weighted one — so the parsed graph's explicit weight
// sweep accounts for every edge.
func TestParseEdgeListMixedWeights(t *testing.T) {
	const in = "a b\nb c 2.5\nc d\nd e 0.5\n"
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("mixed file should parse as weighted")
	}
	want := map[string]float64{"a b": 1, "b c": 2.5, "c d": 1, "d e": 0.5}
	seen := 0
	g.EdgesW(func(u, v Node, w float64) bool {
		key := g.Label(u) + " " + g.Label(v)
		if want[key] != w {
			t.Errorf("weight(%s) = %g, want %g", key, w, want[key])
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("saw %d edges, want %d", seen, len(want))
	}
	// The bare edges must carry explicit weight entries, not rely on the
	// missing-entry fallback: a write/parse round trip preserves them.
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "a b 1") {
		t.Errorf("round-trip output lost the bare edge's unit weight:\n%s", sb.String())
	}
	g2, err := ParseEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.TotalWeight() != g.TotalWeight() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed the graph: %g/%d -> %g/%d",
			g.TotalWeight(), g.NumEdges(), g2.TotalWeight(), g2.NumEdges())
	}
	// A fully bare file must stay unweighted.
	g3, err := ParseEdgeList(strings.NewReader("a b\nb c\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g3.Weighted() {
		t.Fatal("bare file should stay unweighted")
	}
}

// TestParseEdgeListDuplicateLines: repeated edge lines are last-wins,
// and the file stays weighted even when bare re-adds override every
// weighted line (the file carried a weight, so the rule applies).
func TestParseEdgeListDuplicateLines(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("a b 2.5\na b 7\nb a\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("last line is bare, so weight = %g, want 1", w)
	}
	if !g.Weighted() {
		t.Fatal("a file with any weighted line parses as weighted")
	}
}

// TestBuilderDuplicateEdgeLastWins pins the Builder's duplicate-edge
// semantics: one adjacency entry, last call decides the weight, and a
// write/parse round trip reproduces the graph exactly.
func TestBuilderDuplicateEdgeLastWins(t *testing.T) {
	b := NewBuilder(3)
	b.SetWeight(0, 1, 2.5)
	b.SetWeight(1, 0, 7) // same undirected edge, reversed: overwrites
	b.SetWeight(1, 2, 3)
	b.AddEdge(1, 2) // resets to the default weight
	b.SetWeight(2, 0, 4)
	g := b.Build()
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2 (no duplicate adjacency entries)", d)
	}
	if w := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("weight(0,1) = %g, want 7 (last SetWeight wins)", w)
	}
	if w := g.EdgeWeight(1, 2); w != 1 {
		t.Fatalf("weight(1,2) = %g, want 1 (AddEdge resets)", w)
	}
	// Round trip through the text format.
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.TotalWeight() != g.TotalWeight() {
		t.Fatalf("round trip changed the graph: %d/%g -> %d/%g",
			g.NumEdges(), g.TotalWeight(), g2.NumEdges(), g2.TotalWeight())
	}

	// A builder whose weights were all reset by AddEdge builds unweighted.
	b2 := NewBuilder(2)
	b2.SetWeight(0, 1, 5)
	b2.AddEdge(0, 1)
	if g := b2.Build(); g.Weighted() {
		t.Fatal("all weights reset: graph should be unweighted")
	}
}

// TestWritersRefuseLabelsThatDoNotReadBack: a label the text formats
// would read as a comment marker, as two tokens or as nothing is an error
// naming it, not a file that parses to a different graph.
func TestWritersRefuseLabelsThatDoNotReadBack(t *testing.T) {
	for _, bad := range []string{"#", "#tag", "%x", "", "a b", "tab\there", " lead"} {
		b := NewBuilder(2)
		b.AddEdge(0, 1)
		b.SetLabels([]string{"ok", bad})
		g := b.Build()
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("WriteEdgeList with label %q: err = %v, want one naming the label (wrote %q)", bad, err, sb.String())
		}
		if err := WriteCommunities(&sb, g, [][]Node{{0, 1}}); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("WriteCommunities with label %q: err = %v, want one naming the label", bad, err)
		}
	}
	// The parser accepts "0 #" (a second token may start with '#'); the
	// writer, which would have to put that label first, must refuse.
	g, err := ParseEdgeList(strings.NewReader("0 #\n1 #"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(io.Discard, g); err == nil {
		t.Fatal(`WriteEdgeList wrote a graph with a node labelled "#"`)
	}
	// Labels that merely contain the markers are fine and round-trip.
	g, err = ParseEdgeList(strings.NewReader("a#1 b%2 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil || sb.String() != "a#1 b%2 0.5\n" {
		t.Fatalf("WriteEdgeList = %q, %v", sb.String(), err)
	}
}

func TestCheckDeltas(t *testing.T) {
	good := []Delta{{Op: DeltaAddEdge, U: 0, V: 1}, {Op: DeltaSetWeight, U: 1, V: 2, W: 0}, {Op: DeltaSetWeight, U: 1, V: 2, W: 1e308},
		{Op: DeltaRemoveEdge, U: 0, V: 1, W: math.NaN()}, {Op: DeltaAddNode, U: 9, W: -1}} // W is not stored by these two
	if err := CheckDeltas(good); err != nil {
		t.Fatalf("CheckDeltas(valid batch) = %v", err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-300} {
		for _, op := range []DeltaOp{DeltaAddEdge, DeltaSetWeight} {
			if err := CheckDeltas(append(good[:2:2], Delta{Op: op, U: 3, V: 4, W: w})); !errors.Is(err, ErrBadWeight) {
				t.Fatalf("CheckDeltas(op %d, weight %v) = %v, want ErrBadWeight", op, w, err)
			}
		}
	}
}
