//go:build race

package core

// raceEnabled reports a build with the race detector, under which sync.Pool
// (fmt's printers among its users) drops items at random: an allocation
// count then measures the detector, not the code.
const raceEnabled = true
