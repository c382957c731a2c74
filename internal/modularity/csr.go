package modularity

import "dmcs/internal/graph"

// This file is the CSR half of the package: the sufficient statistics
// and the density modularity evaluated over a packed graph.CSR snapshot,
// using flat membership masks, the packed adjacency, and the snapshot's
// cached per-node weighted degrees and total edge weight — no per-edge
// weight-map lookups. StatsOf and Density on a Graph are these, applied
// to the Graph's own packed arrays.

// StatsOfCSR computes the sufficient statistics of the node set c within
// the snapshot: internal edge count l_C, degree sum d_C (degrees in G),
// and |C|. Duplicate nodes in c are counted once.
func StatsOfCSR(csr *graph.CSR, c []graph.Node) Stats {
	in := make([]bool, csr.NumNodes())
	members := make([]graph.Node, 0, len(c))
	for _, u := range c {
		if !in[u] {
			in[u] = true
			members = append(members, u)
		}
	}
	s := Stats{Size: len(members)}
	for _, u := range members {
		s.D += int64(csr.Degree(u))
		for _, v := range csr.Neighbors(u) {
			if u < v && in[v] {
				s.L++
			}
		}
	}
	return s
}

// DensityCSR evaluates the paper's density modularity (Definition 2,
// unweighted form) over the snapshot (see Density).
func DensityCSR(csr *graph.CSR, c []graph.Node) float64 {
	return DensityParts(StatsOfCSR(csr, c), int64(csr.NumEdges()))
}

// DensityWeightedCSR evaluates the weighted Definition 2 over the
// snapshot: DM = (w_C − d_C²/(4 w_G)) / |C|, with w_C summed over the
// packed weights, d_C over the cached node-weight table, and w_G the
// cached total. Members are summed in first-occurrence order of c, where
// DensityWeighted on a Graph sums them in sorted order: on an unsorted c
// the two differ in the low bits, which is why DensityWeighted keeps its
// own sweep and does not delegate here.
func DensityWeightedCSR(csr *graph.CSR, c []graph.Node) float64 {
	in := make([]bool, csr.NumNodes())
	members := make([]graph.Node, 0, len(c))
	for _, u := range c {
		if !in[u] {
			in[u] = true
			members = append(members, u)
		}
	}
	if len(members) == 0 {
		return 0
	}
	wg := csr.TotalWeight()
	if wg == 0 {
		return 0
	}
	var wc, dc float64
	for _, u := range members {
		dc += csr.WeightedDegree(u)
		adj := csr.Neighbors(u)
		if ws := csr.NeighborWeights(u); ws != nil {
			for i, v := range adj {
				if u < v && in[v] {
					wc += ws[i]
				}
			}
		} else {
			for _, v := range adj {
				if u < v && in[v] {
					wc++
				}
			}
		}
	}
	return (wc - dc*dc/(4*wg)) / float64(len(members))
}
