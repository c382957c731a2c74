//go:build race

package dmcs_test

const raceEnabled = true
