package group_test

import (
	"math/big"
	"testing"

	"cryptonn/internal/group"
)

// The values every product path returns are rows of the conformance
// harness; what is left here is the argument contract.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestMultiExpLengthMismatchPanics(t *testing.T) {
	p := group.TestParams()
	mc := p.Mont()
	pos, neg := mc.Elem(), mc.Elem()
	bases := []*big.Int{p.G, p.G, p.G}
	mustPanic(t, "MultiExp", func() { p.MultiExp(bases, []*big.Int{big.NewInt(1)}) })
	mustPanic(t, "MultiExpInt64", func() { p.MultiExpInt64(bases, []int64{1, 2}) })
	mustPanic(t, "MultiExpInt64MontParts", func() { p.MultiExpInt64MontParts(pos, neg, bases, []int64{1, 2}, nil) })
	mustPanic(t, "MultiExpInt64SparseMontParts", func() {
		p.MultiExpInt64SparseMontParts(pos, neg, bases, []int{1, 2}, []int64{1}, nil)
	})
}
