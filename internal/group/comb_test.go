package group_test

import (
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// TestCombPowMontLimbsDoesNotAllocate pins the packed-limb fast path (the
// batch-encrypt entry point) as allocation-free; its values are a row of
// the conformance harness.
func TestCombPowMontLimbsDoesNotAllocate(t *testing.T) {
	params := group.PaperParams()
	comb := params.NewFixedBaseComb(params.PowG(big.NewInt(424242)))
	dst := params.Mont().Elem()
	e, _ := params.RandScalar(rand.New(rand.NewSource(32)))
	el := params.ScalarLimbs(e, nil)
	if n := testing.AllocsPerRun(20, func() { comb.PowMontLimbs(dst, el) }); n != 0 {
		t.Errorf("PowMontLimbs allocates %.1f times per call", n)
	}
}
