package dmcs

import (
	"errors"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// ErrTooLarge is returned by ExactSmall for graphs beyond the exhaustive-
// search limit.
var ErrTooLarge = errors.New("dmcs: graph too large for exact search")

// ExactSmall solves DMCS exactly by enumerating every connected node set
// that contains the query nodes, for graphs with at most maxNodes nodes
// (≤ 24). It exists to measure the optimality gap of the heuristics — the
// problem is NP-hard (Theorem 3), so this is exponential and intended for
// tests and calibration only. The query is validated as Search validates
// it: ErrEmptyQuery, an out-of-range error, ErrDisconnected.
func ExactSmall(g *graph.Graph, q []graph.Node, maxNodes int) (*Result, error) {
	n := g.NumNodes()
	if maxNodes <= 0 || maxNodes > 24 {
		maxNodes = 24
	}
	if n > maxNodes {
		return nil, ErrTooLarge
	}
	if _, err := queryComponent(g, q); err != nil {
		return nil, err
	}
	// One packed snapshot serves the 2^n subset evaluations: connectivity
	// floods and density scoring both run on the flat adjacency.
	c := graph.NewCSR(g)
	var qMask uint32
	for _, u := range q {
		qMask |= 1 << uint(u)
	}
	best := -1.0
	var bestMask uint32
	total := uint32(1) << uint(n)
	nodes := make([]graph.Node, 0, n)
	for mask := uint32(1); mask < total; mask++ {
		if mask&qMask != qMask {
			continue
		}
		if !connectedMask(c, mask) {
			continue
		}
		nodes = nodes[:0]
		for u := 0; u < n; u++ {
			if mask&(1<<uint(u)) != 0 {
				nodes = append(nodes, graph.Node(u))
			}
		}
		sc := modularity.DensityCSR(c, nodes)
		if sc > best {
			best = sc
			bestMask = mask
		}
	}
	var comm []graph.Node
	for u := 0; u < n; u++ {
		if bestMask&(1<<uint(u)) != 0 {
			comm = append(comm, graph.Node(u))
		}
	}
	return &Result{Community: comm, Score: best}, nil
}

// connectedMask reports whether the induced subgraph over the mask's nodes
// is connected.
func connectedMask(c *graph.CSR, mask uint32) bool {
	var start graph.Node = -1
	for u := 0; u < c.NumNodes(); u++ {
		if mask&(1<<uint(u)) != 0 {
			start = graph.Node(u)
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := uint32(1) << uint(start)
	stack := []graph.Node{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range c.Neighbors(u) {
			bit := uint32(1) << uint(w)
			if mask&bit != 0 && seen&bit == 0 {
				seen |= bit
				stack = append(stack, w)
			}
		}
	}
	return seen == mask
}
