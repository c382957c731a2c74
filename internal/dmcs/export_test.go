package dmcs

// Graph builders of the internal tests that the external dmcs_test
// package shares.
var (
	DiffRandomGraph = diffRandomGraph
	Reweighted      = reweighted
	NCAQueries      = ncaQueries
)
