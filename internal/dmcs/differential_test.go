package dmcs_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/dmcs"
	"dmcs/internal/dmcsref"
	"dmcs/internal/gen"
	"dmcs/internal/graph"
	"dmcs/internal/lfr"
)

// checkReference runs every variant — the FPA family with and without
// layer pruning — through the production path (SearchCSR) and the
// reference (dmcsref.Search), under opts' objective, and requires the same community,
// Float64bits(score), iteration count and removal order.
func checkReference(t *testing.T, name string, g *graph.Graph, q []graph.Node, opts dmcs.Options) {
	t.Helper()
	var edges []dmcsref.Edge
	g.EdgesW(func(u, v graph.Node, w float64) bool {
		edges = append(edges, dmcsref.Edge{U: int(u), V: int(v), W: w})
		return true
	})
	nq := make([]int, len(q))
	for i, u := range q {
		nq[i] = int(u)
	}
	csr := graph.NewCSR(g)
	for _, variant := range []dmcs.Variant{dmcs.VariantFPA, dmcs.VariantFPADMG, dmcs.VariantNCA, dmcs.VariantNCADR} {
		for _, pruning := range []bool{false, true} {
			if pruning && (variant == dmcs.VariantNCA || variant == dmcs.VariantNCADR) {
				continue // pruning is an FPA-family option
			}
			o := opts
			o.LayerPruning, o.TrackOrder = pruning, true
			got, err := dmcs.SearchCSR(csr, q, variant, o)
			if err != nil {
				t.Fatalf("%s %v pruning=%v: %v", name, variant, pruning, err)
			}
			want := dmcsref.Search(g.NumNodes(), edges, nq, dmcsref.Peel{
				Variant: variant.String(), Pruning: pruning, Objective: int(opts.Objective), Chi: opts.Chi})
			where := fmt.Sprintf("%s q=%v %v pruning=%v objective=%d chi=%v", name, q, variant, pruning, opts.Objective, opts.Chi)
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Errorf("%s: score %v (%x), reference %v (%x)", where, got.Score, math.Float64bits(got.Score), want.Score, math.Float64bits(want.Score))
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s: %d iterations, reference %d", where, got.Iterations, want.Iterations)
			}
			if !sameNodes(got.Community, want.Community) {
				t.Fatalf("%s: community %v, reference %v", where, got.Community, want.Community)
			}
			if !sameNodes(got.RemovalOrder, want.Order) {
				t.Fatalf("%s: removal order %v, reference %v", where, got.RemovalOrder, want.Order)
			}
		}
	}
}

func sameNodes(got []graph.Node, want []int) bool {
	return slices.EqualFunc(got, want, func(u graph.Node, v int) bool { return int(u) == v })
}

// TestDifferentialReferenceVsCSR checks every variant against the
// reference on random weighted and unweighted graphs with one to three
// query nodes. Scores are float-order-sensitive, so this only holds
// because the CSR code accumulates weights in the documented
// sorted-adjacency order; any change to that order shows up here.
func TestDifferentialReferenceVsCSR(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 30 + rng.Intn(50)
			g := dmcs.DiffRandomGraph(rng, n, 0.08, weighted)
			for qs := 1; qs <= 3; qs++ {
				q := make([]graph.Node, 0, qs)
				for _, u := range rng.Perm(n)[:qs] {
					q = append(q, graph.Node(u))
				}
				if !graph.SameComponent(g, q) {
					continue
				}
				checkReference(t, fmt.Sprintf("weighted=%v seed=%d", weighted, seed), g, q, dmcs.Options{})
			}
		}
	}
	// Exact score ties, which only Algorithm 2's ≥ settles: one inside a
	// peel, one between pruning prefixes.
	for _, edges := range [][][2]graph.Node{{{0, 1}, {0, 2}, {0, 3}, {2, 3}}, {{0, 1}, {0, 2}, {0, 4}, {2, 3}}} {
		checkReference(t, fmt.Sprintf("ties %v", edges), graph.FromEdges(5, edges), []graph.Node{1}, dmcs.Options{})
	}
}

// TestDifferentialObjectives checks the alternative selection objectives,
// which ride the same sufficient statistics, against the reference, on a
// dense graph and on one component of a sparse one (an extracted sub-CSR,
// several layers, a Steiner-protected multi-node query). Chi = 0 must
// behave as the comparator's default of 1.
func TestDifferentialObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, weighted := range []bool{false, true} {
		dense := dmcs.DiffRandomGraph(rng, 50, 0.1, weighted)
		sparse := gen.ErdosRenyi(200, 2.5/200, 3)
		if weighted {
			sparse = dmcs.Reweighted(sparse, 3)
		}
		queries := [][]graph.Node{{graph.Node(rng.Intn(50))}}
		queries = append(queries, dmcs.NCAQueries(sparse, 0)...)
		for i, q := range queries {
			g := dense
			if i > 0 {
				g = sparse
			}
			for _, opts := range []dmcs.Options{
				{Objective: dmcs.ClassicModularity},
				{Objective: dmcs.GeneralizedModularityDensity, Chi: 1.5},
				{Objective: dmcs.GeneralizedModularityDensity},
			} {
				checkReference(t, fmt.Sprintf("weighted=%v", weighted), g, q, opts)
			}
		}
	}
}

// TestNCAMatchesReference runs the reference over the graphs NCA's
// certificate loop finds hardest: LFR graphs, plain and reweighted (the
// reweighted ones pick by the candidate-list scan), sparse graphs where most
// nodes are articulation points, and paths, stars and a ring of cliques.
func TestNCAMatchesReference(t *testing.T) {
	sizes, sparse := []int{300, 1000, 2000}, 40
	if testing.Short() {
		sizes, sparse = []int{300}, 10
	}
	for _, n := range sizes {
		for _, mu := range []float64{0.1, 0.2, 0.5} {
			cfg := lfr.Default()
			cfg.N, cfg.Mu, cfg.MaxDeg, cfg.MaxComm = n, mu, 60, n/3
			res, err := lfr.Generate(cfg)
			if err != nil {
				t.Fatalf("lfr n=%d mu=%v: %v", n, mu, err)
			}
			for _, g := range []*graph.Graph{res.G, dmcs.Reweighted(res.G, int64(n))} {
				for _, q := range dmcs.NCAQueries(g, res.Communities[0][0]) {
					checkReference(t, fmt.Sprintf("lfr n=%d mu=%v weighted=%v", n, mu, g.Weighted()), g, q, dmcs.Options{})
				}
			}
		}
	}

	// sparse G(n, 2.5/n): trees hanging off a small core
	for seed := int64(0); seed < int64(sparse); seed++ {
		g := gen.ErdosRenyi(200, 2.5/200, seed)
		hub := graph.Node(0)
		for u := 0; u < g.NumNodes(); u++ {
			if g.Degree(graph.Node(u)) > g.Degree(hub) {
				hub = graph.Node(u)
			}
		}
		if seed%2 == 1 {
			g = dmcs.Reweighted(g, seed)
		}
		for _, q := range dmcs.NCAQueries(g, hub) {
			checkReference(t, fmt.Sprintf("sparse seed=%d", seed), g, q, dmcs.Options{})
		}
	}

	path := graph.NewBuilder(50)
	star := graph.NewBuilder(31)
	for i := 1; i < 50; i++ {
		path.AddEdge(graph.Node(i-1), graph.Node(i))
	}
	for i := 1; i <= 30; i++ {
		star.AddEdge(0, graph.Node(i))
	}
	ring, _ := gen.RingOfCliques(8, 6)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		q    []graph.Node
	}{
		{"path middle", path.Build(), []graph.Node{25}},
		{"path end", path.Build(), []graph.Node{0}},
		{"path both ends", path.Build(), []graph.Node{0, 49}},
		{"star leaf", star.Build(), []graph.Node{7}},
		{"star centre", star.Build(), []graph.Node{0}},
		{"ring of cliques", ring, []graph.Node{0}},
		{"ring of cliques x3", ring, []graph.Node{0, 13, 40}},
	} {
		checkReference(t, c.name, c.g, c.q, dmcs.Options{})
	}
}
