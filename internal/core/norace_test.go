//go:build !race

package core

// raceEnabled reports a build with the race detector (race_test.go).
const raceEnabled = false
