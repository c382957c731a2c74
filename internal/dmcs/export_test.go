package dmcs

// Graph builders of the internal tests that the external dmcs_test
// package shares.
var (
	DiffRandomGraph = diffRandomGraph
	Reweighted      = reweighted
	NCAQueries      = ncaQueries
)

// work is the peel's work so far: adjacency entries read by makeLeaf,
// rehang and remove, the pick scores evaluated, and the heap sift steps.
func (p *ncaPeel) work() int { return p.adjReads + p.scored + p.sifts }

// prunedReads is the last unweighted pruned search's phase-1 and
// ball-view adjacency reads.
func (a *Arena) prunedReads() int { return a.pruneReads }
