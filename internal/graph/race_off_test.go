//go:build !race

package graph

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate only holds without its instrumentation.
const raceEnabled = false
