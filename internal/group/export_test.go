package group

import "testing"

// Helpers only tests need, kept out of the shipped package.

// PaperParams returns the 256-bit group matching the paper's evaluation
// setting.
func PaperParams() *Params {
	p, err := Embedded(PaperBits)
	if err != nil {
		panic(err) // unreachable: constant is known-good
	}
	return p
}

// usePortableKernel deselects the assembly 4-limb kernel until t ends, so
// the Go mulMont4 serves every 256-bit product even on CPUs with ADX.
func usePortableKernel(t testing.TB) {
	saved := useADX
	useADX = false
	t.Cleanup(func() { useADX = saved })
}

// withoutLanes runs f with the lane kernel deselected, so PowRecoded and
// the many-rows multi-exponentiation run the scalar body for every base and
// column even on CPUs with IFMA.
func withoutLanes(f func()) {
	saved := useLanes
	useLanes = false
	defer func() { useLanes = saved }()
	f()
}
