package dmcs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/graph"
)

// TestMergedSnapshotMatchesContiguousPack: a single-component snapshot
// that MergeCSR produced is a page table with no contiguous arrays to
// lend, so its searches run on an extracted sub where the Builder's pack
// of the same graph is wrapped in place. The two must answer bit for
// bit alike — community, Float64bits(score), iteration count, removal
// order — for all four variants, through both entry points (SearchCSR's
// arena extraction and SearchSub on WrapCSR / NewSubCSR), weighted and
// not, on a graph several row pages long.
func TestMergedSnapshotMatchesContiguousPack(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		// A connected 700-node graph: a ring (so one component whatever the
		// chords do) plus random chords.
		const n = 700
		b := graph.NewBuilder(n)
		var ops []graph.Delta
		add := func(u, v graph.Node) {
			w := 1.0
			if weighted {
				w = 0.25 + 2*rng.Float64()
				b.SetWeight(u, v, w)
			} else {
				b.AddEdge(u, v)
			}
			ops = append(ops, graph.Delta{Op: graph.DeltaSetWeight, U: u, V: v, W: w})
		}
		for u := 0; u < n; u++ {
			add(graph.Node(u), graph.Node((u+1)%n))
			for k := 0; k < 2; k++ {
				if v := rng.Intn(n); v != u && v != (u+1)%n && (v+1)%n != u {
					add(graph.Node(u), graph.Node(v))
				}
			}
		}
		born := graph.NewCSR(b.Build())
		// Merged in two steps, so that it has pages of both kinds of
		// ancestry: built by a merge, and rebuilt on top of one.
		merged, _ := graph.MergeCSR(graph.NewCSR(graph.NewBuilder(0).Build()), ops[:len(ops)/2])
		merged, _ = graph.MergeCSR(merged, ops[len(ops)/2:])
		if !born.Contiguous() || merged.Contiguous() {
			t.Fatalf("Contiguous: born %v, merged %v; want true, false", born.Contiguous(), merged.Contiguous())
		}
		all := make([]graph.Node, n)
		for i := range all {
			all[i] = graph.Node(i)
		}
		wrapped, extracted := graph.WrapCSR(born), graph.NewSubCSR(merged, all)
		a := NewArena()
		for _, q := range [][]graph.Node{{0}, {255, 256}, {699}, {17, 300, 650}} {
			for _, v := range []Variant{VariantFPA, VariantNCA, VariantNCADR, VariantFPADMG} {
				for _, opts := range []Options{{}, {LayerPruning: true, TrackOrder: true}} {
					what := fmt.Sprintf("weighted=%v q=%v %v %+v", weighted, q, v, opts)
					want, err := SearchCSR(born, q, v, opts)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					check := func(path string, got *Result, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s, %s: %v", what, path, err)
						}
						if !slices.Equal(got.Community, want.Community) || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
							got.Iterations != want.Iterations || !slices.Equal(got.RemovalOrder, want.RemovalOrder) {
							t.Fatalf("%s, %s: %d nodes score %v after %d removals, the contiguous pack gives %d nodes score %v after %d",
								what, path, len(got.Community), got.Score, got.Iterations, len(want.Community), want.Score, want.Iterations)
						}
					}
					got, err := SearchCSR(merged, q, v, opts)
					check("SearchCSR on the merged snapshot", got, err)
					got, err = SearchSub(a, extracted, q, all, v, opts)
					check("SearchSub on its extracted sub", got, err)
					got, err = SearchSub(a, wrapped, q, all, v, opts)
					check("SearchSub on the wrapped pack", got, err)
				}
			}
		}
	}
}
