//go:build race

package securemat_test

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops items at random: an allocation count then measures the detector,
// not the code.
const raceEnabled = true
