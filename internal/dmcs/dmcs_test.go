package dmcs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

func twoCliquesBridge() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
			b.AddEdge(graph.Node(i+5), graph.Node(j+5))
		}
	}
	b.AddEdge(4, 5)
	return b.Build()
}

func isConnectedSet(g *graph.Graph, c []graph.Node) bool {
	if len(c) == 0 {
		return false
	}
	sub, _ := g.InducedSubgraph(c)
	_, k := graph.ConnectedComponents(sub)
	return k == 1
}

func containsAll(c []graph.Node, want ...graph.Node) bool {
	in := make(map[graph.Node]bool, len(c))
	for _, u := range c {
		in[u] = true
	}
	for _, u := range want {
		if !in[u] {
			return false
		}
	}
	return true
}

func allVariants() []Variant {
	return []Variant{VariantFPA, VariantNCA, VariantNCADR, VariantFPADMG}
}

func TestFPAFindsNearClique(t *testing.T) {
	g := twoCliquesBridge()
	r, err := FPA(g, []graph.Node{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Community) != 5 || !containsAll(r.Community, 0, 1, 2, 3, 4) {
		t.Fatalf("FPA community=%v want the near K5", r.Community)
	}
}

// The paper's headline behavior on Figure 1: searching from u1 must return
// community A, not the classic-modularity-preferred A∪B.
func TestFPAOnFigure1ReturnsA(t *testing.T) {
	g, a, _ := gen.Figure1Toy()
	r, err := FPA(g, []graph.Node{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Community) != len(a) || !containsAll(r.Community, a...) {
		t.Fatalf("FPA on Figure 1 = %v, want A = %v", r.Community, a)
	}
	if math.Abs(r.Score-1.028846) > 1e-5 {
		t.Fatalf("score=%v want DM(A)=1.028846", r.Score)
	}
}

// With the classic-modularity objective the same search prefers A∪B —
// exactly the free-rider effect of Example 1.
func TestFPAClassicObjectivePrefersMerged(t *testing.T) {
	g, _, ab := gen.Figure1Toy()
	r, err := FPA(g, []graph.Node{0}, Options{Objective: ClassicModularity})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Community) != len(ab) {
		t.Fatalf("CM objective community=%v want A∪B (8 nodes)", r.Community)
	}
}

// Resolution limit (Example 3): on the ring of 30 6-cliques, FPA from a
// clique member returns exactly that clique, not two merged cliques.
func TestFPAOnRingOfCliquesReturnsSingleClique(t *testing.T) {
	g, comms := gen.RingOfCliques(30, 6)
	q := comms[7][2]
	r, err := FPA(g, []graph.Node{q}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Community) != 6 || !containsAll(r.Community, comms[7]...) {
		t.Fatalf("FPA ring community=%v want clique %v", r.Community, comms[7])
	}
}

func TestNCAOnRingOfCliques(t *testing.T) {
	g, comms := gen.RingOfCliques(10, 5)
	q := comms[3][0]
	r, err := NCA(g, []graph.Node{q}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(r.Community, q) || !isConnectedSet(g, r.Community) {
		t.Fatalf("NCA invalid community %v", r.Community)
	}
	// NCA should find a small dense community, not the whole ring
	if len(r.Community) > 15 {
		t.Fatalf("NCA community too large: %d nodes", len(r.Community))
	}
}

func TestAllVariantsInvariants(t *testing.T) {
	g := twoCliquesBridge()
	for _, variant := range allVariants() {
		r, err := Search(g, []graph.Node{1}, variant, Options{})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if !containsAll(r.Community, 1) {
			t.Fatalf("%v: community %v lost the query", variant, r.Community)
		}
		if !isConnectedSet(g, r.Community) {
			t.Fatalf("%v: community %v disconnected", variant, r.Community)
		}
	}
}

// Property: for all variants on random connected graphs, the community
// contains Q, is connected, and its reported score matches a direct
// evaluation of the objective.
func TestVariantsPropertyRandomGraphs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(15)
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(graph.Node(i), graph.Node(rng.Intn(i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		q := []graph.Node{graph.Node(rng.Intn(n))}
		for _, variant := range allVariants() {
			r, err := Search(g, q, variant, Options{})
			if err != nil {
				return false
			}
			if !containsAll(r.Community, q...) || !isConnectedSet(g, r.Community) {
				return false
			}
			if math.Abs(r.Score-modularity.Density(g, r.Community)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiQuerySameClique(t *testing.T) {
	g := twoCliquesBridge()
	r, err := FPA(g, []graph.Node{0, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(r.Community, 0, 3) || !isConnectedSet(g, r.Community) {
		t.Fatalf("multi-query community invalid: %v", r.Community)
	}
}

func TestMultiQueryAcrossBridge(t *testing.T) {
	g := twoCliquesBridge()
	r, err := FPA(g, []graph.Node{0, 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// both queries plus the connecting path must survive
	if !containsAll(r.Community, 0, 9) {
		t.Fatalf("community lost a query node: %v", r.Community)
	}
	if !isConnectedSet(g, r.Community) {
		t.Fatalf("community disconnected: %v", r.Community)
	}
}

func TestMultiQueryNCA(t *testing.T) {
	g := twoCliquesBridge()
	r, err := NCA(g, []graph.Node{0, 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(r.Community, 0, 9) || !isConnectedSet(g, r.Community) {
		t.Fatalf("NCA multi-query invalid: %v", r.Community)
	}
}

func TestErrors(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if _, err := FPA(g, nil, Options{}); err != ErrEmptyQuery {
		t.Fatalf("want ErrEmptyQuery, got %v", err)
	}
	if _, err := FPA(g, []graph.Node{0, 3}, Options{}); err != ErrDisconnected {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if _, err := FPA(g, []graph.Node{99}, Options{}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Search(g, []graph.Node{0}, Variant(99), Options{}); err == nil {
		t.Fatal("want unknown-variant error")
	}

	// The component a valid query is admitted with is ascending and
	// complete, whether the flood stopped short of the graph (sorted) or
	// reached all of it (written as 0..n-1). Both floods start at a high
	// id, so the discovery order is not the answer.
	connected := graph.FromEdges(6, [][2]graph.Node{{5, 0}, {0, 3}, {3, 1}, {1, 4}, {4, 2}})
	split := graph.FromEdges(7, [][2]graph.Node{{6, 0}, {0, 4}, {4, 2}, {1, 3}, {3, 5}})
	for _, tc := range []struct {
		g    *graph.Graph
		q    []graph.Node
		want []graph.Node
	}{
		{connected, []graph.Node{5, 2}, []graph.Node{0, 1, 2, 3, 4, 5}},
		{split, []graph.Node{6}, []graph.Node{0, 2, 4, 6}},
		{split, []graph.Node{5, 1}, []graph.Node{1, 3, 5}},
	} {
		comp, err := queryComponentArena(NewArena(), graph.NewCSR(tc.g), tc.q)
		if err != nil || !slices.Equal(comp, tc.want) {
			t.Fatalf("component of %v = %v, %v; want %v", tc.q, comp, err, tc.want)
		}
	}
}

func TestIsolatedQueryNode(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.Node{{1, 2}})
	r, err := FPA(g, []graph.Node{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Community) != 1 || r.Community[0] != 0 {
		t.Fatalf("isolated query community=%v want {0}", r.Community)
	}
}

func TestQueryNodesNeverRemoved(t *testing.T) {
	g, comms := gen.RingOfCliques(6, 5)
	// query nodes in two adjacent cliques: both must survive all variants
	q := []graph.Node{comms[0][0], comms[1][0]}
	for _, variant := range allVariants() {
		r, err := Search(g, q, variant, Options{})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if !containsAll(r.Community, q...) {
			t.Fatalf("%v dropped a query node: %v", variant, r.Community)
		}
	}
}

func TestLayerPruningValidAndSmallerWork(t *testing.T) {
	g, comms := gen.RingOfCliques(20, 6)
	q := []graph.Node{comms[4][1]}
	plain, err := FPA(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := FPA(g, q, Options{LayerPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(pruned.Community, q...) || !isConnectedSet(g, pruned.Community) {
		t.Fatalf("pruned community invalid: %v", pruned.Community)
	}
	// pruning should not be wildly worse than plain FPA here
	if pruned.Score < plain.Score*0.5 {
		t.Fatalf("pruned score %v collapsed vs plain %v", pruned.Score, plain.Score)
	}
}

func TestLayerPruningOnFPADMG(t *testing.T) {
	g, comms := gen.RingOfCliques(8, 5)
	r, err := FPADMG(g, []graph.Node{comms[2][0]}, Options{LayerPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(r.Community, comms[2][0]) || !isConnectedSet(g, r.Community) {
		t.Fatalf("FPA-DMG pruned community invalid: %v", r.Community)
	}
}

func TestTimeout(t *testing.T) {
	g, comms := gen.RingOfCliques(40, 6)
	r, err := NCA(g, []graph.Node{comms[0][0]}, Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Fatal("nanosecond timeout should trip")
	}
	// even timed out, the result must be valid
	if !containsAll(r.Community, comms[0][0]) || !isConnectedSet(g, r.Community) {
		t.Fatalf("timed-out community invalid: %v", r.Community)
	}
}

func TestTrackOrder(t *testing.T) {
	g := twoCliquesBridge()
	r, err := FPA(g, []graph.Node{0}, Options{TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RemovalOrder) != r.Iterations {
		t.Fatalf("order len=%d iterations=%d", len(r.RemovalOrder), r.Iterations)
	}
	seen := map[graph.Node]bool{}
	for _, u := range r.RemovalOrder {
		if seen[u] {
			t.Fatalf("node %d removed twice", u)
		}
		seen[u] = true
		if u == 0 {
			t.Fatal("query node in removal order")
		}
	}
	// without tracking, no order is recorded
	r2, _ := FPA(g, []graph.Node{0}, Options{})
	if r2.RemovalOrder != nil {
		t.Fatal("RemovalOrder should be nil without TrackOrder")
	}
}

// Figure 5's claim: Λ and Θ produce similar removal orders. We check rank
// correlation is clearly positive on a planted-partition graph.
func TestLambdaThetaOrdersCorrelated(t *testing.T) {
	g, comms := gen.PlantedPartition([]int{12, 12, 12}, 0.5, 0.03, 13)
	q := []graph.Node{comms[0][0]}
	a, err := FPA(g, q, Options{TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FPADMG(g, q, Options{TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	posA := map[graph.Node]int{}
	for i, u := range a.RemovalOrder {
		posA[u] = i
	}
	// Spearman-ish: average |rank difference| must be well below random
	var diff, count float64
	for i, u := range b.RemovalOrder {
		if j, ok := posA[u]; ok {
			diff += math.Abs(float64(i - j))
			count++
		}
	}
	if count == 0 {
		t.Skip("orders do not overlap")
	}
	avg := diff / count
	// random permutations of length L have expected |Δrank| ≈ L/3
	if l := count; avg > l/3 {
		t.Fatalf("avg rank difference %.1f not better than random (%.1f)", avg, l/3)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		VariantFPA:    "FPA",
		VariantNCA:    "NCA",
		VariantNCADR:  "NCA-DR",
		VariantFPADMG: "FPA-DMG",
		Variant(42):   "unknown",
	}
	for v, want := range names {
		if v.String() != want {
			t.Fatalf("String(%d)=%q want %q", v, v.String(), want)
		}
	}
}

func TestSteinerProtect(t *testing.T) {
	// path 0-1-2-3-4: protecting {0,4} must include the whole path
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	g := b.Build()
	sub := graph.WrapCSR(graph.NewCSR(g))
	prot := steinerProtect(NewArena(), sub, []graph.Node{0, 4})
	if len(prot) != 5 {
		t.Fatalf("protected=%v want the whole path", prot)
	}
	// single query: just itself
	if p := steinerProtect(NewArena(), sub, []graph.Node{2}); len(p) != 1 || p[0] != 2 {
		t.Fatalf("single protect=%v", p)
	}
}

func TestObjectiveVariantsRun(t *testing.T) {
	g, comms := gen.RingOfCliques(6, 5)
	q := []graph.Node{comms[0][0]}
	for _, obj := range []Objective{DensityModularity, ClassicModularity, GeneralizedModularityDensity} {
		r, err := FPA(g, q, Options{Objective: obj})
		if err != nil {
			t.Fatalf("objective %d: %v", obj, err)
		}
		if !containsAll(r.Community, q...) || !isConnectedSet(g, r.Community) {
			t.Fatalf("objective %d: invalid community %v", obj, r.Community)
		}
	}
}

// The greedy framework's guarantee: the returned community's DM is at
// least the DM of the full component (we only ever keep better subgraphs).
func TestScoreNeverBelowInitial(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(graph.Node(i), graph.Node(rng.Intn(i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		q := []graph.Node{graph.Node(rng.Intn(n))}
		var all []graph.Node
		for i := 0; i < n; i++ {
			all = append(all, graph.Node(i))
		}
		initial := modularity.Density(g, all)
		for _, variant := range allVariants() {
			r, err := Search(g, q, variant, Options{})
			if err != nil {
				return false
			}
			if r.Score < initial-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
