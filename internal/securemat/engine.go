// The secure compute engine: a session object for the three-role protocol.
//
// Algorithm 1's roles are long-lived — a training server decrypts thousands
// of matrices against the same authority, a client encrypts batch after
// batch under the same public keys. Engine owns the state they share
// once: resolved FEIP/FEBO public keys (one fetch per dimension for the
// lifetime of the session), the shared bounded discrete-log solver and
// pooled per-worker scratch slabs. It keeps nothing per weight matrix: a
// caller that answers with one W round after round (the trainer's Predict)
// keeps that W's function keys itself.

package securemat

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
)

// ErrNoSolver reports a decryption method called on an Engine built
// without a discrete-log solver (an encrypt-only client session).
var ErrNoSolver = errors.New("securemat: engine has no dlog solver")

// EngineOptions is NewEngine's options parameter. It has no fields; the
// parameter stays for the callers that pass one.
type EngineOptions struct{}

// Engine is a session handle over a KeyService: it memoizes public keys,
// pools encryption scratch, and carries the solver every secure
// computation needs, so callers stop re-threading it through every call.
//
// Engines are safe for concurrent use. Methods hand out pointers into the
// session's public-key cache; callers must treat them as read-only,
// exactly as with values received from a KeyService.
type Engine struct {
	shared *engineShared
	solver *dlog.Solver
}

// engineShared is the cache state common to an Engine and every
// WithSolver-derived view of it.
type engineShared struct {
	ks KeyService

	pkMu    sync.Mutex
	feipPKs map[int]*feip.MasterPublicKey
	feboPK  *febo.PublicKey

	// sparse holds the sparsity observability counters (sparse.go),
	// shared — like every cache — across WithSolver-derived views.
	sparse sparseCounters
	// dlog accounts the look-ups behind every dense and sparse full-solve
	// evaluation (batch.go), likewise shared across views.
	dlog dlogCounters

	encPool  sync.Pool // *encScratch
	evalPool sync.Pool // *evalScratch
	elemPool sync.Pool // *elemScratch
}

// NewEngine builds a secure compute session over ks.
func NewEngine(ks KeyService, _ EngineOptions) (*Engine, error) {
	if ks == nil {
		return nil, errors.New("securemat: nil key service")
	}
	return &Engine{
		shared: &engineShared{
			ks:      ks,
			feipPKs: make(map[int]*feip.MasterPublicKey),
		},
	}, nil
}

// Keys returns the session's underlying KeyService. No library code calls
// it; it survives for benchmark/'s shadow step only, which derives keys the
// way the trainer used to.
func (e *Engine) Keys() KeyService { return e.shared.ks }

// Solver returns the session's discrete-log solver (nil for encrypt-only
// sessions).
func (e *Engine) Solver() *dlog.Solver { return e.solver }

// WithSolver derives a session view with a different discrete-log solver;
// it is the one way to give an engine a solver, since NewEngine builds
// encrypt-only sessions. The view shares every cache (public keys,
// function keys, scratch pools) with the parent, so a new bound re-fetches
// no key.
func (e *Engine) WithSolver(solver *dlog.Solver) *Engine {
	d := *e
	d.solver = solver
	return &d
}

// FEIPPublic returns the session's inner-product public key for dimension
// eta, fetching it from the KeyService on first use.
func (e *Engine) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	s := e.shared
	s.pkMu.Lock()
	mpk, ok := s.feipPKs[eta]
	s.pkMu.Unlock()
	if ok {
		return mpk, nil
	}
	mpk, err := s.ks.FEIPPublic(eta)
	if err != nil {
		return nil, fmt.Errorf("securemat: fetching FEIP key: %w", err)
	}
	s.pkMu.Lock()
	if prev, ok := s.feipPKs[eta]; ok {
		mpk = prev // keep the first fetch and its precomputed tables
	} else {
		s.feipPKs[eta] = mpk
	}
	s.pkMu.Unlock()
	return mpk, nil
}

// FEBOPublic returns the session's basic-operation public key, fetching it
// on first use.
func (e *Engine) FEBOPublic() (*febo.PublicKey, error) {
	s := e.shared
	s.pkMu.Lock()
	pk := s.feboPK
	s.pkMu.Unlock()
	if pk != nil {
		return pk, nil
	}
	pk, err := s.ks.FEBOPublic()
	if err != nil {
		return nil, fmt.Errorf("securemat: fetching FEBO key: %w", err)
	}
	s.pkMu.Lock()
	if s.feboPK != nil {
		pk = s.feboPK
	} else {
		s.feboPK = pk
	}
	s.pkMu.Unlock()
	return pk, nil
}

// encScratch is the pooled per-worker state of the encryption loop: the
// vector buffer, its coordinate form and the feip ciphertext slabs.
type encScratch struct {
	vec    []int64
	fe     feip.EncryptScratch
	idxBuf []int
	valBuf []int64
}

// support extracts vec's coordinate form into the scratch buffers; the
// returned slices are valid until the next call on this scratch (the feip
// layer copies what it keeps).
func (sc *encScratch) support(vec []int64) (idx []int, vals []int64) {
	sc.idxBuf = sc.idxBuf[:0]
	sc.valBuf = sc.valBuf[:0]
	for i, v := range vec {
		if v != 0 {
			sc.idxBuf = append(sc.idxBuf, i)
			sc.valBuf = append(sc.valBuf, v)
		}
	}
	return sc.idxBuf, sc.valBuf
}

// fullWidth is the density threshold every vector exceeds: the routing of
// the dense Encrypt, whose ciphertexts carry all η coordinates.
const fullWidth = -1

// encryptVectors is the one FEIP encryption loop: it encrypts n vectors of
// dimension eta in coordinate form on every core, one vector per chunk
// (an encryption is |support|+1 exponentiations, plenty to amortize the
// hand-off). load writes vector j into buf. A vector whose density exceeds
// fullAbove is carried on the identity support — every coordinate, zeros
// included, so it decrypts under the ordinary full-row keys; any other
// carries only its non-zero coordinates.
func (e *Engine) encryptVectors(eta, n int, load func(j int, buf []int64), fullAbove float64) ([]*feip.SparseCiphertext, error) {
	mpk, err := e.FEIPPublic(eta)
	if err != nil {
		return nil, err
	}
	// Build the per-h_i combs once, before the workers fan out; every
	// encryption below then runs on the shared read-only fast path.
	mpk.Precompute()
	cts := make([]*feip.SparseCiphertext, n)
	err = par.ForEachChunk(n, 1, 0, par.NoScratch, func(j, _ int, _ struct{}) error {
		// The session pool keeps a scratch per processor, so a worker gets
		// back the one it returned a vector ago.
		sc, _ := e.shared.encPool.Get().(*encScratch)
		if sc == nil {
			sc = &encScratch{}
		}
		defer e.shared.encPool.Put(sc)
		if cap(sc.vec) < eta {
			sc.vec = make([]int64, eta)
		}
		vec := sc.vec[:eta]
		load(j, vec)
		idx, vals := sc.support(vec)
		if float64(len(idx))/float64(eta) > fullAbove {
			idx, vals = group.Identity(eta), vec
		}
		ct, err := feip.EncryptSparseWithScratch(mpk, idx, vals, nil, &sc.fe)
		if err != nil {
			return fmt.Errorf("vector %d: %w", j, err)
		}
		cts[j] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cts, nil
}

// columnsOf loads column j of x, the vectors Encrypt and EncryptSparse
// encrypt.
func columnsOf(x [][]int64) func(j int, buf []int64) {
	return func(j int, buf []int64) {
		for i := range buf {
			buf[i] = x[i][j]
		}
	}
}

// denseCiphertexts drops the (identity) support of full-width ciphertexts.
func denseCiphertexts(cts []*feip.SparseCiphertext) []*feip.Ciphertext {
	out := make([]*feip.Ciphertext, len(cts))
	for j, ct := range cts {
		out[j] = &feip.Ciphertext{Ct0: ct.Ct0, Ct: ct.Ct}
	}
	return out
}

// Encrypt is the pre-process-encryption function of Algorithm 1 (lines
// 14–21) as a session method: every column of X is encrypted under FEIP
// and, unless opted out, every element under FEBO, with public keys served
// from the session cache and the per-column ciphertext slabs drawn from the
// session's scratch pool instead of the heap.
func (e *Engine) Encrypt(x [][]int64, opts EncryptOptions) (*EncryptedMatrix, error) {
	rows, cols, err := Shape(x)
	if err != nil {
		return nil, err
	}
	enc := &EncryptedMatrix{Rows: rows, Cols: cols}
	colCts, err := e.encryptVectors(rows, cols, columnsOf(x), fullWidth)
	if err != nil {
		return nil, fmt.Errorf("securemat: encrypting columns: %w", err)
	}
	enc.ColCts = denseCiphertexts(colCts)
	if opts.WithRows {
		rowCts, err := e.encryptVectors(cols, rows, func(i int, buf []int64) { copy(buf, x[i]) }, fullWidth)
		if err != nil {
			return nil, fmt.Errorf("securemat: encrypting rows: %w", err)
		}
		enc.RowCts = denseCiphertexts(rowCts)
	}
	if !opts.SkipElems {
		elems, err := e.EncryptElems(x)
		if err != nil {
			return nil, err
		}
		enc.Elems = elems.Elems
	}
	return enc, nil
}

// EncryptElems is Encrypt's FEBO half alone: every element of X under FEBO
// and no FEIP ciphertext, for a matrix only element-wise operations read
// (the training labels, the Fig. 3–4 micro-benchmarks).
func (e *Engine) EncryptElems(x [][]int64) (*EncryptedMatrix, error) {
	rows, cols, err := Shape(x)
	if err != nil {
		return nil, err
	}
	boPK, err := e.FEBOPublic()
	if err != nil {
		return nil, err
	}
	boPK.Precompute()
	enc := &EncryptedMatrix{Rows: rows, Cols: cols, Elems: splitRows(make([]*febo.Ciphertext, rows*cols), rows, cols)}
	// Element encryptions are two exponentiations each — chunk a few
	// together so the pipeline overhead stays negligible.
	err = par.ForEachChunk(rows*cols, 16, 0, par.NoScratch,
		func(start, end int, _ struct{}) error {
			for idx := start; idx < end; idx++ {
				i, j := idx/cols, idx%cols
				ct, err := febo.Encrypt(boPK, x[i][j], nil)
				if err != nil {
					return fmt.Errorf("securemat: encrypting element (%d,%d): %w", i, j, err)
				}
				enc.Elems[i][j] = ct
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// DotKeys is the pre-process-key-derivative function for the dot-product
// case (Algorithm 1 lines 24–27): one FEIP function key per row of w, from
// one batched request where the key service takes one.
func (e *Engine) DotKeys(w [][]int64) ([]*feip.FunctionKey, error) {
	if _, _, err := Shape(w); err != nil {
		return nil, err
	}
	return dotKeys(e.shared.ks, w)
}

// DotKeysUncached is DotKeys. The name is held for benchmark/, which
// calls it; no library code does.
func (e *Engine) DotKeysUncached(w [][]int64) ([]*feip.FunctionKey, error) {
	return e.DotKeys(w)
}

// DotKeyCacheStats reports 0, 0: the engine keeps no dot-key cache. The
// name is held for benchmark/, which calls it; no library code does.
func (e *Engine) DotKeyCacheStats() (hits, misses uint64) { return 0, 0 }

// ElementwiseKeys is the pre-process-key-derivative function for the
// element-wise case (Algorithm 1 lines 28–30). FEBO keys are bound to one
// ciphertext commitment each, so a set of them serves one encrypted
// matrix only.
func (e *Engine) ElementwiseKeys(enc *EncryptedMatrix, op febo.Op, y [][]int64) ([][]*febo.FunctionKey, error) {
	if err := checkElems(enc, op, y); err != nil {
		return nil, err
	}
	rows, cols := enc.Rows, enc.Cols
	cmts := make([]*big.Int, 0, rows*cols)
	ys := make([]int64, 0, rows*cols)
	for i := range rows {
		for j := range cols {
			cmts = append(cmts, enc.Elems[i][j].Cmt)
			ys = append(ys, y[i][j])
		}
	}
	if bks, ok := e.shared.ks.(BatchKeyService); ok {
		flat, err := bks.BOKeyBatch(cmts, op, ys)
		if err != nil {
			return nil, fmt.Errorf("securemat: deriving %s keys in batch: %w", op, err)
		}
		return splitRows(flat, rows, cols), nil
	}
	flat := make([]*febo.FunctionKey, len(cmts))
	for t, cmt := range cmts {
		var err error
		if flat[t], err = e.shared.ks.BOKey(cmt, op, ys[t]); err != nil {
			return nil, fmt.Errorf("securemat: deriving %s key for (%d,%d): %w", op, t/cols, t%cols, err)
		}
	}
	return splitRows(flat, rows, cols), nil
}

// SecureDot is the secure-computation function for f = dot-product
// (Algorithm 1 lines 4–8): Z[i][j] = ⟨W_i, X_col_j⟩ recovered from
// ciphertexts only. keys[i] must be the IPKey for row i of w (from
// DotKeys).
func (e *Engine) SecureDot(enc *EncryptedMatrix, keys []*feip.FunctionKey, w [][]int64, opts ComputeOptions) ([][]int64, error) {
	if err := checkWeights(w, enc.Rows); err != nil {
		return nil, err
	}
	return e.solveColumns(denseColumns(enc.ColCts, group.Identity(enc.Rows), keys), enc.Cols, w, opts)
}

// Dot derives the keys for w and computes the secure matrix product in
// one call — the shape of the conv forward and of one-off products.
func (e *Engine) Dot(enc *EncryptedMatrix, w [][]int64, opts ComputeOptions) ([][]int64, error) {
	keys, err := e.DotKeys(w)
	if err != nil {
		return nil, err
	}
	return e.SecureDot(enc, keys, w, opts)
}

// SecureDotRows computes G[i][k] = ⟨d_i, X_row_k⟩ over the dual
// row-orientation ciphertexts, i.e. the matrix product D·Xᵀ — the
// first-layer weight gradient of secure back-propagation. keys[i] must be
// the IPKey for row i of d (vectors of length enc.Cols).
func (e *Engine) SecureDotRows(enc *EncryptedMatrix, keys []*feip.FunctionKey, d [][]int64, opts ComputeOptions) ([][]int64, error) {
	if !enc.HasRows() {
		return nil, fmt.Errorf("%w: matrix was encrypted without row orientation", ErrShape)
	}
	if err := checkWeights(d, enc.Cols); err != nil {
		return nil, err
	}
	return e.solveColumns(denseColumns(enc.RowCts, group.Identity(enc.Cols), keys), enc.Rows, d, opts)
}

// SecureElementwise is the secure-computation function for an element-wise
// Δ = op (Algorithm 1 lines 9–12): Z[i][j] = X[i][j] Δ Y[i][j] recovered from
// ciphertexts only (decryptElemBatched, batch.go).
func (e *Engine) SecureElementwise(enc *EncryptedMatrix, keys [][]*febo.FunctionKey, op febo.Op, y [][]int64, opts ComputeOptions) ([][]int64, error) {
	if err := checkElems(enc, op, y); err != nil {
		return nil, err
	}
	rows, cols := enc.Rows, enc.Cols
	if len(keys) != rows || slices.ContainsFunc(keys, func(row []*febo.FunctionKey) bool { return len(row) != cols }) {
		return nil, fmt.Errorf("%w: the keys do not cover the %dx%d matrix", ErrShape, rows, cols)
	}
	if e.solver == nil {
		return nil, ErrNoSolver
	}
	pk, err := e.FEBOPublic()
	if err != nil {
		return nil, err
	}
	z := newMatrix(rows, cols)
	err = e.decryptElemBatched(pk, enc, keys, op, y, par.Workers(opts.Parallelism), z)
	if err != nil {
		return nil, err
	}
	return z, nil
}

// Elementwise derives the per-commitment keys for (op, y) and computes the
// element-wise result in one call.
func (e *Engine) Elementwise(enc *EncryptedMatrix, op febo.Op, y [][]int64, opts ComputeOptions) ([][]int64, error) {
	keys, err := e.ElementwiseKeys(enc, op, y)
	if err != nil {
		return nil, err
	}
	return e.SecureElementwise(enc, keys, op, y, opts)
}
