// Package modularity implements every community goodness function used in
// the paper: classic modularity (Definition 1), the proposed density
// modularity (Definition 2), the updated density modularity and density
// modularity gain Λ (Definitions 5–6), the density ratio Θ (Definition 7),
// and the generalized modularity density comparator of Section 6.2.3.
//
// All functions exist in two forms: one that takes a graph and an explicit
// node set, and a "parts" form over the sufficient statistics
// (l_C, d_C, |C|, |E|) so peeling algorithms can evaluate objectives
// incrementally without touching the graph. A Graph is a view over one
// packed CSR, so the graph forms of the unweighted functions are computed
// by the CSR forms of csr.go.
package modularity

import (
	"math"
	"slices"

	"dmcs/internal/graph"
)

// Stats holds the sufficient statistics of a community C within a graph G:
// the number of internal edges l_C, the sum over C of node degrees *in G*
// (d_C), and |C|. Every modularity variant is a function of these plus |E|.
type Stats struct {
	L    int64 // internal edge count l_C
	D    int64 // sum of degrees in G over C (d_C)
	Size int   // |C|
}

// StatsOf computes the sufficient statistics of the node set C in g.
// Duplicate nodes in C are counted once.
func StatsOf(g *graph.Graph, c []graph.Node) Stats {
	return StatsOfCSR(graph.NewCSR(g), c)
}

// Classic evaluates the classic modularity of Definition 1:
//
//	CM(G,C) = (1/2|E|) (2 l_C − d_C²/(2|E|)) = l_C/|E| − d_C²/(4|E|²).
//
// It returns 0 for empty graphs.
func Classic(g *graph.Graph, c []graph.Node) float64 {
	return ClassicParts(StatsOf(g, c), int64(g.NumEdges()))
}

// ClassicParts is Classic over precomputed statistics.
func ClassicParts(s Stats, m int64) float64 {
	return ClassicPartsF(float64(s.L), float64(s.D), float64(m))
}

// ClassicPartsF is the float form of ClassicParts, shared by the weighted
// generalization: wC is the internal edge weight, dC the node-weight sum,
// wG the total edge weight.
func ClassicPartsF(wC, dC, wG float64) float64 {
	if wG == 0 {
		return 0
	}
	return wC/wG - dC*dC/(4*wG*wG)
}

// Density evaluates the paper's density modularity (Definition 2,
// unweighted form):
//
//	DM(G,C) = (1/2|C|) (2 l_C − d_C²/(2|E|)) = l_C/|C| − d_C²/(4|E||C|).
//
// It returns 0 for empty communities.
func Density(g *graph.Graph, c []graph.Node) float64 {
	return DensityCSR(graph.NewCSR(g), c)
}

// DensityParts is Density over precomputed statistics.
func DensityParts(s Stats, m int64) float64 {
	return DensityPartsF(float64(s.L), float64(s.D), float64(m), s.Size)
}

// DensityPartsF is the float form of DensityParts, which is exactly the
// weighted Definition 2: DM = (wC − dC²/(4 wG)) / |C|.
func DensityPartsF(wC, dC, wG float64, size int) float64 {
	if size == 0 || wG == 0 {
		return 0
	}
	n := float64(size)
	return wC/n - dC*dC/(4*wG*n)
}

// DensityWeighted evaluates Definition 2 on a weighted graph:
//
//	DM(G,C) = (1/|C|) (w_C − d_C²/(4 w_G)),
//
// where w_C is the internal edge-weight sum, d_C the sum of node weights
// (adjacent edge-weight sums), and w_G the total edge weight of G. On an
// unweighted graph it coincides with Density.
func DensityWeighted(g *graph.Graph, c []graph.Node) float64 {
	in := make(map[graph.Node]bool, len(c))
	for _, u := range c {
		in[u] = true
	}
	if len(in) == 0 {
		return 0
	}
	wg := g.TotalWeight()
	if wg == 0 {
		return 0
	}
	// Sorted sweep: summing in map order would make the low bits of the
	// score differ run to run.
	nodes := make([]graph.Node, 0, len(in))
	for u := range in {
		nodes = append(nodes, u)
	}
	slices.Sort(nodes)
	var wc, dc float64
	for _, u := range nodes {
		dc += g.WeightedDegree(u)
		for _, v := range g.Neighbors(u) {
			if in[v] && u < v {
				wc += g.EdgeWeight(u, v)
			}
		}
	}
	return (wc - dc*dc/(4*wg)) / float64(len(in))
}

// GeneralizedDensity evaluates the generalized modularity density
// comparator used in Section 6.2.3 (Guo, Singh & Bassler 2020): classic
// modularity weighted by the community's internal edge density raised to
// the power chi,
//
//	GMD(C) = CM(C) · ρ_C^χ,  ρ_C = 2 l_C / (|C|(|C|−1)),
//
// with ρ_C = 0 for singleton communities. χ = 1 reproduces the default
// setting; χ = 0 degenerates to classic modularity.
func GeneralizedDensity(g *graph.Graph, c []graph.Node, chi float64) float64 {
	return GeneralizedDensityParts(StatsOf(g, c), int64(g.NumEdges()), chi)
}

// GeneralizedDensityParts is GeneralizedDensity over precomputed statistics.
func GeneralizedDensityParts(s Stats, m int64, chi float64) float64 {
	return GeneralizedDensityPartsF(float64(s.L), float64(s.D), float64(m), s.Size, chi)
}

// GeneralizedDensityPartsF is the float (weighted) form of
// GeneralizedDensityParts.
func GeneralizedDensityPartsF(wC, dC, wG float64, size int, chi float64) float64 {
	cm := ClassicPartsF(wC, dC, wG)
	if chi == 0 {
		return cm
	}
	if size <= 1 {
		return 0
	}
	rho := 2 * wC / (float64(size) * float64(size-1))
	return cm * math.Pow(rho, chi)
}

// GraphDensity is the classic density |E[C]| / |C| (Khuller & Saha 2009),
// the absolute-cohesiveness half of the paper's motivation.
func GraphDensity(s Stats) float64 {
	if s.Size == 0 {
		return 0
	}
	return float64(s.L) / float64(s.Size)
}

// UpdatedDensity evaluates Definition 5: the density modularity of S \ {v},
//
//	(l_S − k_{v,S}) / (|S|−1) − (d_S − d_v)² / (4|E| (|S|−1)),
//
// where kv is the number of edges from v into S and dv is v's degree in G.
func UpdatedDensity(s Stats, m int64, kv, dv int64) float64 {
	if s.Size <= 1 || m == 0 {
		return 0
	}
	n1 := float64(s.Size - 1)
	rest := float64(s.D - dv)
	return (float64(s.L-kv))/n1 - rest*rest/(4*float64(m)*n1)
}

// Lambda evaluates the density modularity gain of Definition 6:
//
//	Λ_S(v) = −4|E| k_{v,S} + 2 d_S d_v − d_v².
//
// Among candidate removable nodes, maximizing Λ is equivalent to maximizing
// the updated density modularity (the dropped terms are constant across
// candidates). Lemma 4: Λ is *unstable* — removing u changes d_S and hence
// the Λ of every node, connected to u or not.
func Lambda(m, dS, kv, dv int64) float64 {
	return float64(-4*m*kv + 2*dS*dv - dv*dv)
}

// LambdaF is the float form of Lambda used on weighted graphs, where kv is
// the edge weight from v into S, dv the node weight of v, dS the community
// node-weight sum, and wG the total edge weight.
func LambdaF(wG, dS, kv, dv float64) float64 {
	return -4*wG*kv + 2*dS*dv - dv*dv
}

// Theta evaluates the density ratio of Definition 7: Θ_S(v) = d_v / k_{v,S}
// where d_v is v's degree in G (fixed) and k_{v,S} its degree into the
// current subgraph. Nodes with no edge into S get +Inf (removing them is
// free). Lemma 5: Θ is *stable* — removing u only changes Θ of u's
// neighbors.
func Theta(dv, kv int64) float64 {
	return ThetaF(float64(dv), float64(kv))
}

// ThetaF is the float form of Theta used on weighted graphs.
func ThetaF(dv, kv float64) float64 {
	if kv == 0 {
		return math.Inf(1)
	}
	return dv / kv
}

// SuffersFreeRider reports whether goodness function f suffers from the
// free-rider effect (Definition 3) for the identified community S against
// an optimum S*: true iff f(S ∪ S*) ≥ f(S).
func SuffersFreeRider(f func([]graph.Node) float64, s, sStar []graph.Node) bool {
	union := make(map[graph.Node]bool, len(s)+len(sStar))
	for _, u := range s {
		union[u] = true
	}
	for _, u := range sStar {
		union[u] = true
	}
	merged := make([]graph.Node, 0, len(union))
	for u := range union {
		merged = append(merged, u)
	}
	return f(merged) >= f(s)
}
