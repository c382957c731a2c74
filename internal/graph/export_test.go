package graph

// Hooks for the external test package (bfs_test.go lives there because it
// needs internal/lfr, which imports this package).

const BFSBottomUpFactor = bfsBottomUpFactor

// BottomUpSteps reports how many levels the layering has expanded
// bottom-up so far.
func (l *Layering) BottomUpSteps() int { return l.bottomUp }

// BFSBottomUpLevels runs the BFS kernel from sources over the whole
// snapshot and reports how many levels it expanded bottom-up.
func (c *CSR) BFSBottomUpLevels(sources []Node) int {
	n := c.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = INF
	}
	return c.flatten().levelBFS(sources, dist, make([]Node, 0, n), n, c.entries)
}
