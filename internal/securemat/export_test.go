package securemat

import "cryptonn/internal/feip"

// SparseDotKeysInFlight is SparseDotKeys with the window of outstanding
// requests chosen by the caller: 1 is the sequential derivation the tests
// compare against, and BenchmarkSparseKeysInFlight sweeps it.
func (e *Engine) SparseDotKeysInFlight(enc *SparseEncryptedMatrix, w [][]int64, inFlight int) ([][]*feip.FunctionKey, error) {
	return e.sparseDotKeys(enc, w, inFlight)
}
