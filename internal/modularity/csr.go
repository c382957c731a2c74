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
