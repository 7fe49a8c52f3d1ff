// The secure compute engine: a session object for the three-role protocol.
//
// Algorithm 1's roles are long-lived — a training server decrypts thousands
// of matrices against the same authority, a client encrypts batch after
// batch under the same public keys. Engine owns the state they share
// once: resolved FEIP/FEBO public keys (one fetch per dimension for the
// lifetime of the session), the shared bounded discrete-log solver, pooled
// per-worker encryption scratch slabs, and the function keys of the last
// weight matrix so repeated SecureDot calls over the same W (prediction
// serving, benchmark sweeps) stop refetching keys from the authority.

package securemat

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/par"
)

// ErrNoSolver reports a decryption method called on an Engine built
// without a discrete-log solver (an encrypt-only client session).
var ErrNoSolver = errors.New("securemat: engine has no dlog solver")

// EngineOptions is NewEngine's options parameter. It has no fields; the
// parameter stays for the callers that pass one.
type EngineOptions struct{}

// Engine is a session handle over a KeyService: it memoizes public keys,
// caches dot-product function keys, pools encryption scratch, and carries
// the solver every secure computation needs, so callers stop re-threading
// it through every call.
//
// Engines are safe for concurrent use. Methods hand out pointers into the
// session caches (public keys, cached function keys); callers must treat
// them as read-only, exactly as with values received from a KeyService.
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

	// The dot-key cache remembers the last weight matrix DotKeys derived
	// for: its callers bring either a new W every step (training: always a
	// miss) or one W for the life of the server (serving: always a hit).
	// lastW is a deep copy, so later caller mutations cannot poison it.
	keyMu        sync.Mutex
	lastW        [][]int64
	lastKeys     []*feip.FunctionKey
	hits, misses uint64

	// sparse holds the sparsity observability counters (sparse.go),
	// shared — like every cache — across WithSolver-derived views.
	sparse sparseCounters
	// dlog accounts the look-ups behind every dense and sparse full-solve
	// evaluation (batch.go), likewise shared across views.
	dlog dlogCounters

	encPool  sync.Pool // *encScratch
	evalPool sync.Pool // *evalScratch
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
// vector buffer, its coordinate form, the identity support of the vectors
// carried at full width, and the feip ciphertext slabs.
type encScratch struct {
	vec     []int64
	fe      feip.EncryptScratch
	idxBuf  []int
	valBuf  []int64
	fullIdx []int
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

// fullSupport returns the identity support [0, eta), cached per scratch.
func (sc *encScratch) fullSupport(eta int) []int {
	if len(sc.fullIdx) < eta {
		sc.fullIdx = identity(eta)
	}
	return sc.fullIdx[:eta]
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
			idx, vals = sc.fullSupport(eta), vec
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
	enc := &EncryptedMatrix{Rows: rows, Cols: cols, Elems: make([][]*febo.Ciphertext, rows)}
	buf := make([]*febo.Ciphertext, rows*cols)
	for i := range enc.Elems {
		enc.Elems[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
	}
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
// case (Algorithm 1 lines 24–27), remembering the last matrix: the keys for
// the W it was last called with (prediction serving answers every request
// with the same trained W) are returned without touching the authority.
// The returned keys are shared with the cache — read-only.
func (e *Engine) DotKeys(w [][]int64) ([]*feip.FunctionKey, error) {
	if _, _, err := Shape(w); err != nil {
		return nil, err
	}
	s := e.shared
	s.keyMu.Lock()
	if matricesEqual(s.lastW, w) {
		s.hits++
		keys := s.lastKeys
		s.keyMu.Unlock()
		return keys, nil
	}
	s.misses++
	s.keyMu.Unlock()
	// Derive outside the lock: a concurrent miss on the same W costs one
	// duplicate derivation, never a stall of unrelated callers.
	keys, err := dotKeys(s.ks, w)
	if err != nil {
		return nil, err
	}
	lastW := copyMatrix(w)
	s.keyMu.Lock()
	s.lastW, s.lastKeys = lastW, keys
	s.keyMu.Unlock()
	return keys, nil
}

// DotKeysUncached derives the dot-product keys without touching the
// session cache. It is the right call for matrices that are unique by
// construction — the per-batch gradient rows of secure back-propagation —
// where caching would only pay a deep copy per call and displace the one
// entry worth keeping (a serving model's W).
func (e *Engine) DotKeysUncached(w [][]int64) ([]*feip.FunctionKey, error) {
	if _, _, err := Shape(w); err != nil {
		return nil, err
	}
	return dotKeys(e.shared.ks, w)
}

// DotKeyCacheStats reports the hit/miss counters of the dot-product
// function-key cache since the session started.
func (e *Engine) DotKeyCacheStats() (hits, misses uint64) {
	s := e.shared
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	return s.hits, s.misses
}

// ElementwiseKeys is the pre-process-key-derivative function for the
// element-wise case (Algorithm 1 lines 28–30). FEBO keys are bound to one
// ciphertext commitment each, so — unlike DotKeys — there is nothing to
// cache across matrices.
func (e *Engine) ElementwiseKeys(enc *EncryptedMatrix, f Function, y [][]int64) ([][]*febo.FunctionKey, error) {
	return elementwiseKeys(e.shared.ks, enc, f, y)
}

// SecureDot is the secure-computation function for f = dot-product
// (Algorithm 1 lines 4–8): Z[i][j] = ⟨W_i, X_col_j⟩ recovered from
// ciphertexts only. keys[i] must be the IPKey for row i of w (from
// DotKeys).
func (e *Engine) SecureDot(enc *EncryptedMatrix, keys []*feip.FunctionKey, w [][]int64, opts ComputeOptions) ([][]int64, error) {
	if err := checkWeights(w, enc.Rows); err != nil {
		return nil, err
	}
	return e.solveColumns(denseColumns(enc.ColCts, identity(enc.Rows), keys), enc.Cols, w, opts)
}

// Dot derives (or cache-hits) the keys for w and computes the secure
// matrix product in one call — the shape of every training-loop and
// prediction use.
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
	return e.solveColumns(denseColumns(enc.RowCts, identity(enc.Cols), keys), enc.Rows, d, opts)
}

// SecureElementwise is the secure-computation function for element-wise f
// (Algorithm 1 lines 9–12): Z[i][j] = X[i][j] Δ Y[i][j] recovered from
// ciphertexts only (decryptElemBatched, batch.go).
func (e *Engine) SecureElementwise(enc *EncryptedMatrix, keys [][]*febo.FunctionKey, f Function, y [][]int64, opts ComputeOptions) ([][]int64, error) {
	op, ok := f.BasicOp()
	if !ok {
		return nil, fmt.Errorf("%w: %s is not element-wise", ErrFunction, f)
	}
	if !enc.HasElems() {
		return nil, fmt.Errorf("%w: matrix was encrypted without element ciphertexts", ErrShape)
	}
	rows, cols, err := Shape(y)
	if err != nil {
		return nil, err
	}
	if rows != enc.Rows || cols != enc.Cols {
		return nil, fmt.Errorf("%w: Y is %dx%d, encrypted X is %dx%d", ErrShape, rows, cols, enc.Rows, enc.Cols)
	}
	if len(keys) != rows || len(enc.Elems) != rows {
		return nil, fmt.Errorf("%w: %d key rows and %d ciphertext rows for %d matrix rows", ErrShape, len(keys), len(enc.Elems), rows)
	}
	for i := range keys {
		if len(keys[i]) != cols || len(enc.Elems[i]) != cols {
			return nil, fmt.Errorf("%w: row %d has %d keys and %d ciphertexts, want %d", ErrShape, i, len(keys[i]), len(enc.Elems[i]), cols)
		}
	}
	if e.solver == nil {
		return nil, ErrNoSolver
	}
	pk, err := e.FEBOPublic()
	if err != nil {
		return nil, err
	}
	z := newMatrix(rows, cols)
	err = decryptElemBatched(pk, e.solver, &e.shared.dlog, enc, keys, op, y, par.Workers(opts.Parallelism), z)
	if err != nil {
		return nil, err
	}
	return z, nil
}

// Elementwise derives the per-commitment keys for (f, y) and computes the
// element-wise result in one call.
func (e *Engine) Elementwise(enc *EncryptedMatrix, f Function, y [][]int64, opts ComputeOptions) ([][]int64, error) {
	keys, err := e.ElementwiseKeys(enc, f, y)
	if err != nil {
		return nil, err
	}
	return e.SecureElementwise(enc, keys, f, y, opts)
}

func matricesEqual(a, b [][]int64) bool {
	return slices.EqualFunc(a, b, func(x, y []int64) bool { return slices.Equal(x, y) })
}

func copyMatrix(m [][]int64) [][]int64 {
	out := make([][]int64, len(m))
	buf := make([]int64, len(m)*len(m[0]))
	for i, row := range m {
		out[i] = buf[i*len(row) : (i+1)*len(row) : (i+1)*len(row)]
		copy(out[i], row)
	}
	return out
}
