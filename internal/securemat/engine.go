// The secure compute engine: a session object for the three-role protocol.
//
// Algorithm 1's roles are long-lived — a training server decrypts thousands
// of matrices against the same authority, a client encrypts batch after
// batch under the same public keys. Engine owns the state they share
// once: resolved FEIP/FEBO public keys (one fetch per dimension for the
// lifetime of the session), the shared bounded discrete-log solver, pooled
// per-worker encryption scratch slabs, and a small function-key cache keyed
// by weight matrix so repeated SecureDot calls over the same W (prediction
// serving, benchmark sweeps) stop refetching keys from the authority.

package securemat

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
)

// DefaultDotKeyCache is the dot-product function-key cache capacity (in
// weight matrices) selected by EngineOptions.DotKeyCache = 0.
const DefaultDotKeyCache = 8

// ErrNoSolver reports a decryption method called on an Engine built
// without a discrete-log solver (an encrypt-only client session).
var ErrNoSolver = errors.New("securemat: engine has no dlog solver")

// EngineOptions configures a secure compute session.
type EngineOptions struct {
	// Solver is the bounded discrete-log solver shared by every decryption
	// the session performs. Encrypt-only sessions (clients) may leave it
	// nil; the Secure* methods then return ErrNoSolver. WithSolver derives
	// a session with a different bound over the same caches.
	Solver *dlog.Solver
	// Parallelism is the session's default worker count, used whenever a
	// per-call EncryptOptions/ComputeOptions leaves Parallelism at 0:
	// values < 2 select the sequential path, negative values NumCPU.
	Parallelism int
	// DotKeyCache is the capacity (in distinct weight matrices) of the
	// function-key cache behind DotKeys: 0 selects DefaultDotKeyCache,
	// negative disables caching (every call derives fresh keys — used by
	// the key-traffic measurements, which count authority requests).
	DotKeyCache int
	// SparseBuckets, when non-empty, turns on the support-hiding padding
	// policy for sparse key derivation: every coordinate-form key request
	// SparseDotKeys sends is first widened with zero-valued coordinates to
	// the smallest bucket ≥ the column's nnz (or to full width when the
	// support exceeds every bucket), so the authority — and any observer
	// of the key-request wire — sees bucketed support sizes, never exact
	// ones. Zero-valued coordinates leave the derived key numerically
	// unchanged (sk = Σ vals·s[idx] and the pads contribute 0), so
	// decryption is unaffected. Values are normalized (sorted, deduped);
	// non-positive buckets are rejected.
	SparseBuckets []int
}

// Engine is a session handle over a KeyService: it memoizes public keys,
// caches dot-product function keys, pools encryption scratch, and carries
// the solver + parallelism defaults every secure computation needs, so
// callers stop re-threading them through every call.
//
// Engines are safe for concurrent use. Methods hand out pointers into the
// session caches (public keys, cached function keys); callers must treat
// them as read-only, exactly as with values received from a KeyService.
type Engine struct {
	shared *engineShared
	solver *dlog.Solver
	par    int
}

// engineShared is the cache state common to an Engine and every
// WithSolver-derived view of it.
type engineShared struct {
	ks KeyService

	pkMu    sync.Mutex
	feipPKs map[int]*feip.MasterPublicKey
	feboPK  *febo.PublicKey

	keyMu        sync.Mutex
	keyCap       int
	keyCache     map[uint64][]*dotKeyEntry
	keyOrder     []uint64 // insertion order of hashes, for FIFO eviction
	hits, misses uint64

	// sparse holds the sparsity observability counters (sparse.go),
	// shared — like every cache — across WithSolver-derived views.
	sparse sparseCounters
	// dlog accounts the look-ups behind every dense and sparse full-solve
	// evaluation (batch.go), likewise shared across views.
	dlog dlogCounters

	// buckets is the normalized support-padding size-class ladder
	// (EngineOptions.SparseBuckets); empty disables padding.
	buckets []int

	encPool sync.Pool // *encScratch
}

// dotKeyEntry is one cached (weight matrix → function keys) binding. The
// matrix is a deep copy taken at insertion, so hash collisions are resolved
// by exact comparison and later caller mutations cannot poison the cache.
type dotKeyEntry struct {
	w    [][]int64
	keys []*feip.FunctionKey
}

// NewEngine builds a secure compute session over ks.
func NewEngine(ks KeyService, opts EngineOptions) (*Engine, error) {
	if ks == nil {
		return nil, errors.New("securemat: nil key service")
	}
	cap := opts.DotKeyCache
	if cap == 0 {
		cap = DefaultDotKeyCache
	}
	if cap < 0 {
		cap = 0
	}
	buckets, err := normalizeBuckets(opts.SparseBuckets)
	if err != nil {
		return nil, err
	}
	return &Engine{
		shared: &engineShared{
			ks:       ks,
			feipPKs:  make(map[int]*feip.MasterPublicKey),
			keyCap:   cap,
			keyCache: make(map[uint64][]*dotKeyEntry),
			buckets:  buckets,
		},
		solver: opts.Solver,
		par:    opts.Parallelism,
	}, nil
}

// normalizeBuckets validates and canonicalizes a padding ladder: a copy,
// ascending, duplicate-free. Non-positive bucket sizes are configuration
// errors (a zero bucket can never hold a support).
func normalizeBuckets(buckets []int) ([]int, error) {
	if len(buckets) == 0 {
		return nil, nil
	}
	out := make([]int, 0, len(buckets))
	for _, b := range buckets {
		if b <= 0 {
			return nil, fmt.Errorf("securemat: sparse bucket size must be positive, got %d", b)
		}
		out = append(out, b)
	}
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w], nil
}

// Keys returns the session's underlying KeyService. No library code calls
// it; it survives for benchmark/'s shadow step only, which derives keys the
// way the trainer used to.
func (e *Engine) Keys() KeyService { return e.shared.ks }

// Solver returns the session's discrete-log solver (nil for encrypt-only
// sessions).
func (e *Engine) Solver() *dlog.Solver { return e.solver }

// WithSolver derives a session view with a different discrete-log bound.
// The view shares every cache (public keys, function keys, scratch pools)
// with the parent — a server can size a solver per workload without
// re-fetching a single key.
func (e *Engine) WithSolver(solver *dlog.Solver) *Engine {
	d := *e
	d.solver = solver
	return &d
}

// workers resolves a per-call Parallelism value against the session
// default: 0 defers to the engine, negative means NumCPU.
func (e *Engine) workers(req int) int {
	if req == 0 {
		req = e.par
	}
	if req < 0 {
		req = DefaultParallelism()
	}
	return req
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

// encScratch is the pooled per-worker state of Engine.Encrypt: the column
// gather buffer plus the feip ciphertext slabs (position/negative
// accumulators, dense-cache staging, inversion prefix) that the stateless
// path allocated per column.
type encScratch struct {
	colBuf []int64
	fe     feip.EncryptScratch
	// Sparse-path buffers: the column's coordinate form and the identity
	// support used for density-promoted columns.
	idxBuf  []int
	valBuf  []int64
	fullIdx []int
}

// support extracts col's coordinate form into the scratch buffers; the
// returned slices are valid until the next call on this scratch (the feip
// layer copies what it keeps).
func (sc *encScratch) support(col []int64) (idx []int, vals []int64) {
	sc.idxBuf = sc.idxBuf[:0]
	sc.valBuf = sc.valBuf[:0]
	for i, v := range col {
		if v != 0 {
			sc.idxBuf = append(sc.idxBuf, i)
			sc.valBuf = append(sc.valBuf, v)
		}
	}
	return sc.idxBuf, sc.valBuf
}

// fullSupport returns the identity support [0, rows), cached per scratch.
func (sc *encScratch) fullSupport(rows int) []int {
	if len(sc.fullIdx) < rows {
		sc.fullIdx = make([]int, rows)
		for i := range sc.fullIdx {
			sc.fullIdx[i] = i
		}
	}
	return sc.fullIdx[:rows]
}

// encScratchSource adapts the engine's scratch pool to forEachChunk's
// per-worker newScratch hook: every worker checks one scratch out, and
// release returns them all once the pipeline has joined.
func (e *Engine) encScratchSource() (newScratch func() *encScratch, release func()) {
	var mu sync.Mutex
	var used []*encScratch
	newScratch = func() *encScratch {
		sc, _ := e.shared.encPool.Get().(*encScratch)
		if sc == nil {
			sc = &encScratch{}
		}
		mu.Lock()
		used = append(used, sc)
		mu.Unlock()
		return sc
	}
	release = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, sc := range used {
			e.shared.encPool.Put(sc)
		}
		used = nil
	}
	return newScratch, release
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
	workers := e.workers(opts.Parallelism)
	colMPK, err := e.FEIPPublic(rows)
	if err != nil {
		return nil, err
	}
	// Build the per-h_i fixed-base tables once, before the workers fan
	// out; every column encryption below then runs on the shared
	// read-only fast path.
	colMPK.Precompute()
	newScratch, release := e.encScratchSource()
	defer release()
	enc := &EncryptedMatrix{Rows: rows, Cols: cols}
	enc.ColCts = make([]*feip.Ciphertext, cols)
	// One column per chunk: a column encryption is η+1 exponentiations,
	// plenty to amortize the chunk hand-off.
	err = forEachChunk(cols, 1, workers, newScratch,
		func(start, end int, sc *encScratch) error {
			if cap(sc.colBuf) < rows {
				sc.colBuf = make([]int64, rows)
			}
			colBuf := sc.colBuf[:rows]
			for j := start; j < end; j++ {
				for i := 0; i < rows; i++ {
					colBuf[i] = x[i][j]
				}
				ct, err := feip.EncryptWithScratch(colMPK, colBuf, nil, &sc.fe)
				if err != nil {
					return fmt.Errorf("securemat: encrypting column %d: %w", j, err)
				}
				enc.ColCts[j] = ct
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if opts.WithRows {
		rowMPK, err := e.FEIPPublic(cols)
		if err != nil {
			return nil, err
		}
		rowMPK.Precompute()
		enc.RowCts = make([]*feip.Ciphertext, rows)
		err = forEachChunk(rows, 1, workers, newScratch,
			func(start, end int, sc *encScratch) error {
				for i := start; i < end; i++ {
					ct, err := feip.EncryptWithScratch(rowMPK, x[i], nil, &sc.fe)
					if err != nil {
						return fmt.Errorf("securemat: encrypting row %d: %w", i, err)
					}
					enc.RowCts[i] = ct
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
	}
	if !opts.SkipElems {
		boPK, err := e.FEBOPublic()
		if err != nil {
			return nil, err
		}
		boPK.Precompute()
		enc.Elems = make([][]*febo.Ciphertext, rows)
		buf := make([]*febo.Ciphertext, rows*cols)
		for i := range enc.Elems {
			enc.Elems[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
		}
		// Element encryptions are two exponentiations each — chunk a few
		// together so the pipeline overhead stays negligible.
		err = forEachChunk(rows*cols, 16, workers,
			func() struct{} { return struct{}{} },
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
	}
	return enc, nil
}

// DotKeys is the pre-process-key-derivative function for the dot-product
// case (Algorithm 1 lines 24–27), with a session-level cache: the keys for
// a weight matrix already seen (prediction serving answers every request
// with the same trained W) are returned without touching the authority.
// The returned keys are shared with the cache — read-only.
func (e *Engine) DotKeys(w [][]int64) ([]*feip.FunctionKey, error) {
	if _, _, err := Shape(w); err != nil {
		return nil, err
	}
	s := e.shared
	if s.keyCap == 0 {
		return dotKeys(s.ks, w)
	}
	h := hashMatrix(w)
	s.keyMu.Lock()
	for _, ent := range s.keyCache[h] {
		if matricesEqual(ent.w, w) {
			s.hits++
			keys := ent.keys
			s.keyMu.Unlock()
			return keys, nil
		}
	}
	s.misses++
	s.keyMu.Unlock()
	// Derive outside the lock: a concurrent miss on the same W costs one
	// duplicate derivation, never a stall of unrelated cache users.
	keys, err := dotKeys(s.ks, w)
	if err != nil {
		return nil, err
	}
	ent := &dotKeyEntry{w: copyMatrix(w), keys: keys}
	s.keyMu.Lock()
	s.keyCache[h] = append(s.keyCache[h], ent)
	s.keyOrder = append(s.keyOrder, h)
	for len(s.keyOrder) > s.keyCap {
		old := s.keyOrder[0]
		s.keyOrder = s.keyOrder[1:]
		if bucket := s.keyCache[old]; len(bucket) <= 1 {
			delete(s.keyCache, old)
		} else {
			s.keyCache[old] = bucket[1:]
		}
	}
	s.keyMu.Unlock()
	return keys, nil
}

// DotKeysUncached derives the dot-product keys without touching the
// session cache. It is the right call for matrices that are unique by
// construction — the per-batch gradient rows of secure back-propagation —
// where caching would only pay a full-matrix hash and deep copy per call
// and churn reusable entries (a serving model's W) out of the FIFO.
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
	wRows, wCols, err := Shape(w)
	if err != nil {
		return nil, err
	}
	if wCols != enc.Rows {
		return nil, fmt.Errorf("%w: W is %dx%d but encrypted X has %d rows", ErrShape, wRows, wCols, enc.Rows)
	}
	if len(keys) != wRows {
		return nil, fmt.Errorf("%w: %d keys for %d rows of W", ErrShape, len(keys), wRows)
	}
	if err := checkCiphertexts(enc.ColCts, enc.Cols, enc.Rows); err != nil {
		return nil, err
	}
	if e.solver == nil {
		return nil, ErrNoSolver
	}
	mpk, err := e.FEIPPublic(enc.Rows)
	if err != nil {
		return nil, err
	}
	z := newMatrix(wRows, enc.Cols)
	if err := decryptDotBatched(mpk.Params, e.solver, &e.shared.dlog, enc.ColCts, keys, w, e.workers(opts.Parallelism), z); err != nil {
		return nil, err
	}
	return z, nil
}

// checkCiphertexts refuses one orientation of an EncryptedMatrix unless it
// holds exactly count ciphertexts of dimension eta, none of them nil. The
// dense evaluators index cts by output cell and read every Ct[i], and
// callers assemble EncryptedMatrix views by hand (core's conv path, the
// coalescing dispatcher), so a view whose counts disagree with its slices
// must fail here, before any arithmetic, not as a panic or a short result.
func checkCiphertexts(cts []*feip.Ciphertext, count, eta int) error {
	if len(cts) != count {
		return fmt.Errorf("%w: %d ciphertexts for a matrix declaring %d", ErrShape, len(cts), count)
	}
	for j, ct := range cts {
		if ct == nil {
			return fmt.Errorf("%w: nil ciphertext %d", ErrShape, j)
		}
		if len(ct.Ct) != eta {
			return fmt.Errorf("%w: ciphertext %d has dimension %d, want %d", ErrShape, j, len(ct.Ct), eta)
		}
	}
	return nil
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
	dRows, dCols, err := Shape(d)
	if err != nil {
		return nil, err
	}
	if dCols != enc.Cols {
		return nil, fmt.Errorf("%w: D is %dx%d but encrypted X has %d cols", ErrShape, dRows, dCols, enc.Cols)
	}
	if len(keys) != dRows {
		return nil, fmt.Errorf("%w: %d keys for %d rows of D", ErrShape, len(keys), dRows)
	}
	if err := checkCiphertexts(enc.RowCts, enc.Rows, enc.Cols); err != nil {
		return nil, err
	}
	if e.solver == nil {
		return nil, ErrNoSolver
	}
	mpk, err := e.FEIPPublic(enc.Cols)
	if err != nil {
		return nil, err
	}
	g := newMatrix(dRows, enc.Rows)
	if err := decryptDotBatched(mpk.Params, e.solver, &e.shared.dlog, enc.RowCts, keys, d, e.workers(opts.Parallelism), g); err != nil {
		return nil, err
	}
	return g, nil
}

// SecureElementwise is the secure-computation function for element-wise f
// (Algorithm 1 lines 9–12): Z[i][j] = X[i][j] Δ Y[i][j] recovered from
// ciphertexts only, entirely in the Montgomery domain — per-cell numerator
// and denominator come from febo.DecryptPartsMont as raw limb elements,
// each chunk's denominators share one batched inversion, and the quotients
// feed the dlog solver without a big.Int round-trip.
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
	if len(keys) != rows {
		return nil, fmt.Errorf("%w: %d key rows for %d matrix rows", ErrShape, len(keys), rows)
	}
	if e.solver == nil {
		return nil, ErrNoSolver
	}
	pk, err := e.FEBOPublic()
	if err != nil {
		return nil, err
	}
	z := newMatrix(rows, cols)
	err = decryptElemBatched(pk, e.solver, &e.shared.dlog, enc, keys, op, y, e.workers(opts.Parallelism), z)
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

// hashMatrix is FNV-1a over the dimensions and elements of a weight
// matrix — the dot-key cache's bucket key. Collisions are handled by exact
// comparison, so the hash only needs to spread.
func hashMatrix(w [][]int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(w)))
	mix(uint64(len(w[0])))
	for _, row := range w {
		for _, v := range row {
			mix(uint64(v))
		}
	}
	return h
}

func matricesEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
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
