package securemat

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
)

// ElementwiseSub is febo.OpSub, X − Y element-wise. The element-wise
// methods take a febo.Op; this name is kept only for
// benchmark/workload_train.go and goes with the re-base of benchmark/ onto
// the engine surface (ROADMAP item 2a).
const ElementwiseSub = febo.OpSub

// KeyService is the protocol's view of the authority (Fig. 1): it hands out
// public keys and function-derived keys for the permitted function set.
// Implementations include the in-process authority and the TCP client in
// internal/wire. An Engine wraps a KeyService and memoizes what it serves.
//
// A KeyService must be safe for concurrent use: engines are shared between
// goroutines, and SparseDotKeys calls IPKey (or IPKeySparse) from several
// goroutines of its own at once.
type KeyService interface {
	// FEIPPublic returns the inner-product master public key (dimension η).
	FEIPPublic(eta int) (*feip.MasterPublicKey, error)
	// FEBOPublic returns the basic-operation public key.
	FEBOPublic() (*febo.PublicKey, error)
	// IPKey derives the inner-product key for weight vector y.
	IPKey(y []int64) (*feip.FunctionKey, error)
	// BOKey derives the basic-op key bound to the ciphertext commitment cmt.
	BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error)
}

// BatchKeyService is an optional KeyService extension: implementations
// derive the keys for several weight vectors in one exchange. Over the
// network this collapses the per-row round trips of a weight matrix into
// a single frame (§IV-B2's k-keys-per-iteration traffic); DotKeys uses
// it automatically when available.
type BatchKeyService interface {
	KeyService
	// IPKeyBatch derives one inner-product key per weight vector, in
	// order.
	IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error)
	// BOKeyBatch derives one basic-op key per (commitment, scalar) pair,
	// in order; cmts and ys must have equal length.
	BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error)
}

// ErrShape reports a ragged or dimension-mismatched matrix.
var ErrShape = errors.New("securemat: shape mismatch")

// Shape checks that m is rectangular and returns (rows, cols).
func Shape(m [][]int64) (rows, cols int, err error) {
	rows = len(m)
	if rows == 0 {
		return 0, 0, fmt.Errorf("%w: empty matrix", ErrShape)
	}
	cols = len(m[0])
	if cols == 0 {
		return 0, 0, fmt.Errorf("%w: empty row", ErrShape)
	}
	for i, row := range m {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), cols)
		}
	}
	return rows, cols, nil
}

// EncryptedMatrix is the client-side pre-processing output [[x]], [[X]] of
// Algorithm 1 (plus the optional dual row orientation).
type EncryptedMatrix struct {
	// Rows and Cols are the plaintext dimensions.
	Rows, Cols int
	// ColCts[j] encrypts column j of X (a vector of length Rows) under
	// FEIP; used for W·X.
	ColCts []*feip.Ciphertext
	// RowCts[i] encrypts row i of X (a vector of length Cols) under FEIP;
	// dual orientation for dZ·Xᵀ during back-propagation. Nil unless
	// requested.
	RowCts []*feip.Ciphertext
	// Elems[i][j] encrypts X[i][j] under FEBO for element-wise arithmetic.
	// Nil unless requested.
	Elems [][]*febo.Ciphertext
}

// HasElems reports whether per-element FEBO ciphertexts are present.
func (e *EncryptedMatrix) HasElems() bool { return e != nil && e.Elems != nil }

// HasRows reports whether the dual row-orientation ciphertexts are present.
func (e *EncryptedMatrix) HasRows() bool { return e != nil && e.RowCts != nil }

// EncryptOptions selects which ciphertext forms Encrypt produces. The zero
// value reproduces Algorithm 1 exactly (columns + elements). Encryption runs
// on every core the Go runtime may use (GOMAXPROCS); the fixed-base tables
// the workers share are immutable after Precompute, so any worker count is
// safe.
type EncryptOptions struct {
	// SkipElems omits the per-element FEBO ciphertexts (saves one
	// exponentiation pair per element when only dot-products are needed).
	SkipElems bool
	// WithRows additionally encrypts each row under FEIP (dual
	// orientation for secure gradient computation).
	WithRows bool
}

// ComputeOptions tunes the secure-computation step.
type ComputeOptions struct {
	// Parallelism is the number of decryption workers, the one per-call
	// worker count in the repository (par.Workers): 0 is every core the Go
	// runtime may use, 1 keeps the evaluation on the caller's goroutine —
	// the sequential panel of Fig. 3–5. The result is the same at every
	// worker count, bit for bit, and so is the error. It bounds this
	// engine's evaluation loop only; key derivation and encryption follow
	// GOMAXPROCS.
	Parallelism int
	// InputMagnitude is an optional upper bound on |X[i][j]| known to the
	// caller (the fixed-point quantization range, a word-count cap). When
	// positive, the sparse top-k head derives a per-column logit ceiling
	// max_i Σ_{t∈supp}|W[i][t]|·InputMagnitude and starts the descending
	// dlog scan at the first round that can contain it, skipping the empty
	// ladder prefix (dlog.TopKMontBounded). An input whose magnitude
	// exceeds it gets an undefined ranking for its own column only: its
	// true top logits can be missing, with no error, while every other
	// column ranks exactly, because each column is scanned alone, also
	// when requests are coalesced into one product. It is not detected:
	// detection costs exactly the rounds the ceiling skips. Zero means no
	// ceiling — the scan starts at the solver bound, and
	// SparseStats.TopKUnbounded counts it; other compute paths ignore it.
	InputMagnitude int64
}

// dotKeys derives one inner-product key per row of w, in one batched
// exchange when the service supports it.
func dotKeys(ks KeyService, w [][]int64) ([]*feip.FunctionKey, error) {
	if bks, ok := ks.(BatchKeyService); ok {
		keys, err := bks.IPKeyBatch(w)
		if err != nil {
			return nil, fmt.Errorf("securemat: deriving dot keys in batch: %w", err)
		}
		return keys, nil
	}
	keys := make([]*feip.FunctionKey, len(w))
	for i, row := range w {
		fk, err := ks.IPKey(row)
		if err != nil {
			return nil, fmt.Errorf("securemat: deriving dot key for row %d: %w", i, err)
		}
		keys[i] = fk
	}
	return keys, nil
}

// checkElems is the one validation in front of the element-wise methods:
// op is one of FEBO's four, enc carries element ciphertexts covering its
// declared shape, and y has that shape.
func checkElems(enc *EncryptedMatrix, op febo.Op, y [][]int64) error {
	if !op.Valid() {
		return fmt.Errorf("securemat: %w: %d", febo.ErrInvalidOp, int(op))
	}
	if !enc.HasElems() {
		return fmt.Errorf("%w: matrix was encrypted without element ciphertexts", ErrShape)
	}
	if len(enc.Elems) != enc.Rows || slices.ContainsFunc(enc.Elems, func(row []*febo.Ciphertext) bool { return len(row) != enc.Cols }) {
		return fmt.Errorf("%w: element ciphertexts do not cover the %dx%d matrix", ErrShape, enc.Rows, enc.Cols)
	}
	rows, cols, err := Shape(y)
	if err != nil {
		return err
	}
	if rows != enc.Rows || cols != enc.Cols {
		return fmt.Errorf("%w: Y is %dx%d, encrypted X is %dx%d", ErrShape, rows, cols, enc.Rows, enc.Cols)
	}
	return nil
}

func newMatrix(rows, cols int) [][]int64 { return splitRows(make([]int64, rows*cols), rows, cols) }

// splitRows cuts the first rows·cols entries of flat into rows of cols
// entries, each capped at its own end.
func splitRows[T any](flat []T, rows, cols int) [][]T {
	out := make([][]T, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}
