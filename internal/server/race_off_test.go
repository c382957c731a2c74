//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in; the
// allocation bound only holds without its instrumentation.
const raceEnabled = false
