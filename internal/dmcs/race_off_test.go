//go:build !race

package dmcs

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates only hold without its instrumentation.
const raceEnabled = false
