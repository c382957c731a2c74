//go:build race

package dmcs

const raceEnabled = true
