package securemat

import (
	"testing"
	_ "unsafe" // go:linkname

	"cryptonn/internal/feip"
)

// SparseDotKeysInFlight is SparseDotKeys with the window of outstanding
// requests chosen by the caller: 1 is the sequential derivation the tests
// compare against, and BenchmarkSparseKeysInFlight sweeps it.
func (e *Engine) SparseDotKeysInFlight(enc *SparseEncryptedMatrix, w [][]int64, inFlight int) ([][]*feip.FunctionKey, error) {
	return e.sparseDotKeys(enc, w, inFlight)
}

// groupUseLanes is group's lane-kernel selection, read from CPUID at start
// (group/lanes_amd64.go). It is not an option; tests that compare the lane
// and scalar bodies end to end deselect it through DeselectLanes.
//
//go:linkname groupUseLanes cryptonn/internal/group.useLanes
var groupUseLanes bool

// DeselectLanes turns group's lane kernel off until t ends, so every FEIP
// numerator and denominator runs the scalar body. It is exported for the
// package's external tests and benchmarks.
func DeselectLanes(t testing.TB) {
	saved := groupUseLanes
	groupUseLanes = false
	t.Cleanup(func() { groupUseLanes = saved })
}
