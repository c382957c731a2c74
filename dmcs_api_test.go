package dmcs_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dmcs"
	"dmcs/internal/graph"
)

// twoCliques is the standard two-K5s-with-a-bridge fixture.
func twoCliques() *dmcs.Graph {
	b := dmcs.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(dmcs.Node(i), dmcs.Node(j))
			b.AddEdge(dmcs.Node(i+5), dmcs.Node(j+5))
		}
	}
	b.AddEdge(4, 5)
	return b.Build()
}

func TestPublicQuickstartFlow(t *testing.T) {
	g := twoCliques()
	res, err := dmcs.FPA(g, []dmcs.Node{0}, dmcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) != 5 {
		t.Fatalf("community=%v want the K5", res.Community)
	}
	if math.Abs(res.Score-dmcs.DensityModularityOf(g, res.Community)) > 1e-9 {
		t.Fatal("Score should match DensityModularityOf")
	}
}

func TestPublicSearchVariants(t *testing.T) {
	g := twoCliques()
	for _, v := range []dmcs.Variant{dmcs.VariantFPA, dmcs.VariantNCA, dmcs.VariantNCADR, dmcs.VariantFPADMG} {
		res, err := dmcs.Search(g, []dmcs.Node{2}, v, dmcs.Options{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		found := false
		for _, u := range res.Community {
			if u == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v lost the query node", v)
		}
	}
}

func TestPublicParseEdgeList(t *testing.T) {
	g, err := dmcs.ParseEdgeList(strings.NewReader("a b\nb c\nc a\nc d\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("parsed n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	res, err := dmcs.FPA(g, []dmcs.Node{0}, dmcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) == 0 {
		t.Fatal("no community found")
	}
}

func TestPublicErrors(t *testing.T) {
	g := dmcs.FromEdges(4, [][2]dmcs.Node{{0, 1}, {2, 3}})
	if _, err := dmcs.FPA(g, nil, dmcs.Options{}); err != dmcs.ErrEmptyQuery {
		t.Fatalf("want ErrEmptyQuery, got %v", err)
	}
	if _, err := dmcs.FPA(g, []dmcs.Node{0, 2}, dmcs.Options{}); err != dmcs.ErrDisconnected {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	// A node outside the graph gets one sentinel, whichever entry point
	// the query takes.
	path := dmcs.FromEdges(3, [][2]dmcs.Node{{0, 1}, {1, 2}})
	q := []dmcs.Node{7}
	_, errSearch := dmcs.Search(path, q, dmcs.VariantFPA, dmcs.Options{})
	_, errCSR := dmcs.SearchCSR(dmcs.NewCSR(path), q, dmcs.VariantNCA, dmcs.Options{})
	_, errEngine := dmcs.NewEngine(path, dmcs.EngineOptions{}).Search(context.Background(), dmcs.EngineQuery{Nodes: q})
	for i, err := range []error{errSearch, errCSR, errEngine} {
		if !errors.Is(err, dmcs.ErrNodeOutOfRange) {
			t.Errorf("entry point %d: got %v, want ErrNodeOutOfRange", i, err)
		}
	}
}

func TestPublicModularityValues(t *testing.T) {
	// Example 1/2 arithmetic through the public API: build the Figure 1
	// toy network inline.
	b := dmcs.NewBuilder(16)
	k4 := func(base dmcs.Node) {
		for i := dmcs.Node(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	k4(0)
	k4(4)
	k4(8)
	k4(12)
	b.AddEdge(0, 4)
	b.AddEdge(1, 5)
	g := b.Build()
	a := []dmcs.Node{0, 1, 2, 3}
	if got := dmcs.ClassicModularityOf(g, a); math.Abs(got-0.158284) > 1e-6 {
		t.Fatalf("CM(A)=%v", got)
	}
	if got := dmcs.DensityModularityOf(g, a); math.Abs(got-1.028846) > 1e-6 {
		t.Fatalf("DM(A)=%v", got)
	}
	if got := dmcs.WeightedDensityModularityOf(g, a); math.Abs(got-1.028846) > 1e-6 {
		t.Fatalf("weighted DM(A)=%v on unweighted graph", got)
	}
}

func TestPublicObjectiveConstants(t *testing.T) {
	g := twoCliques()
	for _, obj := range []dmcs.Objective{dmcs.DensityModularity, dmcs.ClassicModularity, dmcs.GeneralizedModularityDensity} {
		if _, err := dmcs.FPA(g, []dmcs.Node{0}, dmcs.Options{Objective: obj}); err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
	}
}

func TestPublicEngineApply(t *testing.T) {
	g := twoCliques()
	eng := dmcs.NewEngine(g, dmcs.EngineOptions{Workers: 2})
	ctx := context.Background()
	if _, err := eng.Search(ctx, dmcs.EngineQuery{Nodes: []dmcs.Node{0}}); err != nil {
		t.Fatal(err)
	}

	var b dmcs.EngineBatch
	b.RemoveEdge(4, 5) // cut the bridge
	b.AddNode(10)
	st, _ := eng.Apply(b)
	if st.Epoch != 1 || st.EdgesRemoved != 1 || st.NodesAdded != 1 {
		t.Fatalf("ApplyStats = %+v, want epoch 1 with one removal and one new node", st)
	}
	if st.Components != 3 {
		t.Fatalf("components = %d, want 3 (two cliques + isolated node)", st.Components)
	}
	if _, err := eng.Search(ctx, dmcs.EngineQuery{Nodes: []dmcs.Node{0, 5}}); err != dmcs.ErrDisconnected {
		t.Fatalf("cross-cut query err = %v, want ErrDisconnected", err)
	}
	res, err := eng.Search(ctx, dmcs.EngineQuery{Nodes: []dmcs.Node{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) != 5 {
		t.Fatalf("post-cut community = %v, want the K5", res.Community)
	}
}

// componentsFixture is a graph of several components of different sizes
// — two random connected blobs, a triangle, a pair, an isolated node —
// or, with multi false, the first blob alone, so that both the extracted
// and the whole-graph search paths run.
func componentsFixture(weighted, multi bool) (*dmcs.Graph, []graph.Delta) {
	rng := rand.New(rand.NewSource(7))
	b := dmcs.NewBuilder(0)
	var ops []graph.Delta
	add := func(u, v int) {
		if w := 0.25 + 3*rng.Float64(); weighted {
			b.SetWeight(dmcs.Node(u), dmcs.Node(v), w)
			ops = append(ops, graph.Delta{Op: graph.DeltaSetWeight, U: dmcs.Node(u), V: dmcs.Node(v), W: w})
		} else {
			b.AddEdge(dmcs.Node(u), dmcs.Node(v))
			ops = append(ops, graph.Delta{Op: graph.DeltaAddEdge, U: dmcs.Node(u), V: dmcs.Node(v)})
		}
	}
	blob := func(base, n int) {
		for i := 1; i < n; i++ {
			add(base+i, base+rng.Intn(i))
		}
		for k := 0; k < 3*n; k++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				add(base+u, base+v)
			}
		}
	}
	blob(0, 70)
	if multi {
		add(70, 71) // the pair
		blob(72, 40)
		add(112, 113)
		add(113, 114)
		add(112, 114)
		ops = append(ops, graph.Delta{Op: graph.DeltaAddNode, U: 115})
		b.SetLabels(make([]string, 116))
	}
	return b.Build(), ops
}

// TestRootSearchMatchesSearchCSR: the Graph entry points, which read the
// graph's own snapshot and its memoised partition, return exactly what
// SearchCSR returns on a snapshot packed another way (merged into an
// empty one) that floods the component per query.
func TestRootSearchMatchesSearchCSR(t *testing.T) {
	variants := []dmcs.Variant{dmcs.VariantFPA, dmcs.VariantNCA, dmcs.VariantNCADR, dmcs.VariantFPADMG}
	for _, weighted := range []bool{false, true} {
		for _, multi := range []bool{true, false} {
			g, ops := componentsFixture(weighted, multi)
			c, _ := graph.MergeCSR(graph.NewCSR(dmcs.NewBuilder(0).Build()), ops)
			if c == dmcs.NewCSR(g) || c.NumNodes() != g.NumNodes() || c.Weighted() != weighted {
				t.Fatal("reference snapshot is not an independent pack of the same graph")
			}
			queries := [][]dmcs.Node{{3}, {69}, {5, 31, 60}}
			if multi {
				queries = append(queries, []dmcs.Node{80}, []dmcs.Node{72, 90, 111}, []dmcs.Node{70}, []dmcs.Node{113, 112, 114}, []dmcs.Node{115})
			}
			for _, q := range queries {
				for _, v := range variants {
					for _, opts := range []dmcs.Options{{}, {LayerPruning: true, TrackOrder: true}} {
						want, err := dmcs.SearchCSR(c, q, v, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := dmcs.Search(g, q, v, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, fmt.Sprintf("weighted=%v multi=%v q=%v %v %+v", weighted, multi, q, v, opts), got, want)
					}
				}
				wantF, _ := dmcs.SearchCSR(c, q, dmcs.VariantFPA, dmcs.Options{})
				gotF, _ := dmcs.FPA(g, q, dmcs.Options{})
				sameResult(t, "FPA", gotF, wantF)
				wantN, _ := dmcs.SearchCSR(c, q, dmcs.VariantNCA, dmcs.Options{})
				gotN, _ := dmcs.NCA(g, q, dmcs.Options{})
				sameResult(t, "NCA", gotN, wantN)
			}
			bad := [][]dmcs.Node{nil, {}, {-1}, {dmcs.Node(g.NumNodes())}, {3, dmcs.Node(g.NumNodes())}}
			if multi {
				bad = append(bad, []dmcs.Node{3, 80}, []dmcs.Node{70, 115}, []dmcs.Node{-1, 3, 80})
			}
			for _, q := range bad {
				_, want := dmcs.SearchCSR(c, q, dmcs.VariantFPA, dmcs.Options{})
				_, got := dmcs.Search(g, q, dmcs.VariantFPA, dmcs.Options{})
				if want == nil || got != want {
					t.Fatalf("q=%v: Search error %v, SearchCSR error %v", q, got, want)
				}
			}
			if _, err := dmcs.Search(g, nil, dmcs.VariantNCA, dmcs.Options{}); err != dmcs.ErrEmptyQuery {
				t.Fatalf("empty query: %v", err)
			}
			if _, err := dmcs.Search(g, []dmcs.Node{3, 80}, dmcs.VariantNCA, dmcs.Options{}); multi && err != dmcs.ErrDisconnected {
				t.Fatalf("split query: %v", err)
			}
		}
	}
}

// TestRepeatedQueryMatchesDeduplicated: a query node listed more than
// once is the same query. For every variant, with and without layer
// pruning, a query with repeats answers exactly as its first-occurrence
// deduplication does — community, Float64bits(score), iterations and
// removal order. NCA and NCA-DR once stopped when the alive count fell to
// len(q), so [0 0 0 0] on the first fixture stopped after one removal
// with the whole graph.
func TestRepeatedQueryMatchesDeduplicated(t *testing.T) {
	weightedG, _ := componentsFixture(true, false)
	plainG, _ := componentsFixture(false, false)
	cases := []struct {
		name string
		g    *dmcs.Graph
		q    []dmcs.Node
	}{
		{"path-and-triangle", dmcs.FromEdges(5, [][2]dmcs.Node{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 4}}), []dmcs.Node{0, 0, 0, 0}},
		{"two-cliques", twoCliques(), []dmcs.Node{2, 2}},
		{"two-cliques-multi", twoCliques(), []dmcs.Node{3, 1, 3, 1}},
		{"components", plainG, []dmcs.Node{5, 31, 5, 60, 31}},
		{"components-weighted", weightedG, []dmcs.Node{31, 31, 5}},
	}
	variants := []dmcs.Variant{dmcs.VariantFPA, dmcs.VariantNCA, dmcs.VariantNCADR, dmcs.VariantFPADMG}
	for _, tc := range cases {
		var dedup []dmcs.Node
		for _, u := range tc.q {
			if !slices.Contains(dedup, u) {
				dedup = append(dedup, u)
			}
		}
		c := dmcs.NewCSR(tc.g)
		for _, v := range variants {
			for _, opts := range []dmcs.Options{{TrackOrder: true}, {LayerPruning: true, TrackOrder: true}} {
				what := fmt.Sprintf("%s q=%v %v pruning=%v", tc.name, tc.q, v, opts.LayerPruning)
				want, err := dmcs.Search(tc.g, dedup, v, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dmcs.Search(tc.g, tc.q, v, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, what+" Search", got, want)
				if got, err = dmcs.SearchCSR(c, tc.q, v, opts); err != nil {
					t.Fatal(err)
				}
				sameResult(t, what+" SearchCSR", got, want)
			}
		}
	}
}

func sameResult(t *testing.T, what string, got, want *dmcs.Result) {
	t.Helper()
	if !slices.Equal(got.Community, want.Community) || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
		got.Iterations != want.Iterations || !slices.Equal(got.RemovalOrder, want.RemovalOrder) {
		t.Fatalf("%s: got %d nodes score %v after %d removals, want %d nodes score %v after %d",
			what, len(got.Community), got.Score, got.Iterations, len(want.Community), want.Score, want.Iterations)
	}
}

// TestGraphMemoConcurrentFirstUse: the first searches on a fresh Graph
// arrive together; each must see the one partition the graph memoises
// and answer as a serial SearchCSR does. Run under -race in CI.
func TestGraphMemoConcurrentFirstUse(t *testing.T) {
	for _, multi := range []bool{true, false} {
		g, ops := componentsFixture(true, multi)
		c, _ := graph.MergeCSR(graph.NewCSR(dmcs.NewBuilder(0).Build()), ops)
		queries := [][]dmcs.Node{{3}, {5, 31, 60}, {69}, {12}}
		if multi {
			queries = [][]dmcs.Node{{3}, {80}, {113}, {70}}
		}
		got := make([]*dmcs.Result, 8)
		errs := make([]error, 8)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = dmcs.Search(g, queries[i%len(queries)], dmcs.Variant(i%4), dmcs.Options{})
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := dmcs.SearchCSR(c, queries[i%len(queries)], dmcs.Variant(i%4), dmcs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("goroutine %d", i), got[i], want)
		}
		id1, n1 := graph.ConnectedComponents(g)
		id2, n2 := graph.ConnectedComponents(g)
		if n1 != n2 || &id1[0] != &id2[0] {
			t.Fatal("the partition was built more than once")
		}
	}
}
