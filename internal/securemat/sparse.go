// Sparse secure matrices: coordinate-form encryption, support-masked keys,
// and top-k decryption for extreme multi-label workloads.
//
// A bag-of-words batch (η in the tens of thousands, >95% zeros) pays the
// dense pipeline's full η+1 exponentiations per column even though almost
// every coordinate encrypts a zero. The sparse pipeline instead encrypts
// only each column's support (feip.SparseCiphertext), derives
// support-masked function keys (⟨w_i, x⟩ = ⟨w_i·1_supp, x⟩ since x
// vanishes off-support), and — for wide output layers — solves the final
// discrete logs only for the top-k logits per sample
// (dlog.TopKMontBounded).
//
// The density router: columns at or below DefaultSparseThreshold carry
// their true support; denser columns are promoted to full width so their
// masked keys collapse to the ordinary full-row keys, which every promoted
// column then shares (one derivation per W row instead of one per (row,
// column)). The threshold trades encryption work against key-request
// amplification — see docs/SPARSE.md for the measurement behind it.
//
// A compact column's support is no secret: the ciphertext carries it, and
// every key request for it carries the support and W's values on it.
// docs/SPARSE.md ("What sparsity leaks") says what each party learns.

package securemat

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/par"
)

// DefaultSparseThreshold is the column density at or below which
// Engine.EncryptSparse keeps a true (compact) support. Above it the column
// is padded to full width: the encryption saving shrinks linearly while
// the per-support key amplification cost stays, and at this point the
// shared full-row keys win (measured in BenchmarkICDEndToEnd's density
// sweep; see docs/SPARSE.md).
const DefaultSparseThreshold = 0.25

// SparseKeyService is an optional KeyService extension: derive the
// inner-product key for a support-restricted weight vector without the
// caller materializing the η-wide masked vector. The in-process authority
// and wire.RemoteKeyService (one ip-key-sparse frame per key) implement it;
// services that lack it — the quorum client, whose nodes refuse whole-key
// frames — fall back to dense masked IPKey requests, η wide and zero off
// the support. Like every KeyService it must be safe for concurrent use:
// SparseDotKeys keeps sparseKeysInFlight IPKeySparse calls outstanding.
type SparseKeyService interface {
	KeyService
	// IPKeySparse derives sk = Σ_t vals[t]·s[idx[t]] mod q over the
	// η-dimensional FEIP master secret: the function key for the weight
	// vector that equals vals on idx and zero elsewhere.
	IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error)
}

// SparseEncryptedMatrix is the coordinate-form counterpart of
// EncryptedMatrix: one sparse FEIP ciphertext per column, no row or
// element forms (the sparse pipeline is dot-product– and top-k–oriented).
type SparseEncryptedMatrix struct {
	// Rows and Cols are the plaintext dimensions (Rows = η).
	Rows, Cols int
	// ColCts[j] encrypts column j of X in coordinate form.
	ColCts []*feip.SparseCiphertext
}

// Nnz returns the total number of explicitly encrypted coordinates.
func (m *SparseEncryptedMatrix) Nnz() int {
	n := 0
	for _, ct := range m.ColCts {
		n += ct.Nnz()
	}
	return n
}

// sparseCounters is the engine's sparsity observability state, updated
// atomically by the sparse paths and snapshotted by SparseStats.
type sparseCounters struct {
	sparseColumns   atomic.Uint64 // columns carried in compact coordinate form
	promotedColumns atomic.Uint64 // columns padded to full width by the router
	skippedCoords   atomic.Uint64 // zero coordinates never encrypted
	encryptedCoords atomic.Uint64 // coordinates actually encrypted (sparse path)
	maskedKeys      atomic.Uint64 // support-masked function keys derived
	topkSolved      atomic.Uint64 // dlogs recovered by top-k scans
	topkSkipped     atomic.Uint64 // dlogs avoided by top-k scans
	topkRounds      atomic.Uint64 // giant-step rounds executed by top-k scans
	topkUnbounded   atomic.Uint64 // top-k scans run without a caller-supplied input magnitude
}

// SparseStats is a point-in-time snapshot of the engine's sparse-path
// counters: how many columns took which route, how much encryption work
// the support representation skipped, and what the top-k scans solved
// versus avoided.
type SparseStats struct {
	SparseColumns   uint64
	PromotedColumns uint64
	SkippedCoords   uint64
	EncryptedCoords uint64
	MaskedKeys      uint64
	TopKSolved      uint64
	TopKSkipped     uint64
	TopKRounds      uint64
	// TopKUnbounded counts top-k scans whose caller omitted
	// ComputeOptions.InputMagnitude: they start at the solver bound and
	// walk the whole empty ladder prefix.
	TopKUnbounded uint64
}

// SparseStats snapshots the session's sparse-path counters.
func (e *Engine) SparseStats() SparseStats {
	c := &e.shared.sparse
	return SparseStats{
		SparseColumns:   c.sparseColumns.Load(),
		PromotedColumns: c.promotedColumns.Load(),
		SkippedCoords:   c.skippedCoords.Load(),
		EncryptedCoords: c.encryptedCoords.Load(),
		MaskedKeys:      c.maskedKeys.Load(),
		TopKSolved:      c.topkSolved.Load(),
		TopKSkipped:     c.topkSkipped.Load(),
		TopKRounds:      c.topkRounds.Load(),
		TopKUnbounded:   c.topkUnbounded.Load(),
	}
}

// WriteMetrics emits the engine's counters in Prometheus text format,
// satisfying wire.MetricsSource structurally so a server can mount the
// engine on its /metrics endpoint without securemat importing wire.
func (e *Engine) WriteMetrics(w io.Writer) {
	s := e.SparseStats()
	d := e.DlogStats()
	hits, misses := e.DotKeyCacheStats()
	emit := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	emit("cryptonn_securemat_sparse_columns_total", "Columns encrypted in compact coordinate form.", s.SparseColumns)
	emit("cryptonn_securemat_promoted_columns_total", "Columns padded to full width by the density router.", s.PromotedColumns)
	emit("cryptonn_securemat_skipped_coords_total", "Zero coordinates never encrypted by the sparse path.", s.SkippedCoords)
	emit("cryptonn_securemat_encrypted_coords_total", "Coordinates encrypted by the sparse path.", s.EncryptedCoords)
	emit("cryptonn_securemat_masked_keys_total", "Support-masked function keys derived.", s.MaskedKeys)
	emit("cryptonn_securemat_topk_solved_total", "Discrete logs recovered by top-k scans.", s.TopKSolved)
	emit("cryptonn_securemat_topk_skipped_total", "Discrete logs avoided by top-k scans.", s.TopKSkipped)
	emit("cryptonn_securemat_topk_rounds_total", "Giant-step rounds executed by top-k scans.", s.TopKRounds)
	emit("cryptonn_securemat_topk_unbounded_total", "Top-k scans run without an input magnitude, so without a logit ceiling.", s.TopKUnbounded)
	emit("cryptonn_securemat_dlog_lookups_total", "Discrete-log look-ups run by the dense and sparse full-solve evaluators.", d.Lookups)
	emit("cryptonn_securemat_dlog_rounds_total", "Giant-step rounds those look-ups took (0 per look-up while values sit in the centre window).", d.Rounds)
	emit("cryptonn_securemat_dlog_out_of_bound_total", "Cells and top-k scans whose value lay outside the solver bound (fixed-point overflow).", d.OutOfBound)
	emit("cryptonn_securemat_dotkey_cache_hits_total", "Dot-product key cache hits.", hits)
	emit("cryptonn_securemat_dotkey_cache_misses_total", "Dot-product key cache misses.", misses)
}

// EncryptSparse encrypts X column-by-column in coordinate form, routing
// each column by its density: at or below DefaultSparseThreshold the column
// carries only its non-zero coordinates; above it the column is padded to
// full width so its function keys stay support-independent and shared.
// Only column-orientation dot products are supported on the result, so
// opts.WithRows is rejected and opts.SkipElems is implied.
func (e *Engine) EncryptSparse(x [][]int64, opts EncryptOptions) (*SparseEncryptedMatrix, error) {
	rows, cols, err := Shape(x)
	if err != nil {
		return nil, err
	}
	if opts.WithRows {
		return nil, fmt.Errorf("%w: sparse encryption is column-oriented only", ErrShape)
	}
	cts, err := e.encryptVectors(rows, cols, columnsOf(x), DefaultSparseThreshold)
	if err != nil {
		return nil, fmt.Errorf("securemat: sparse-encrypting columns: %w", err)
	}
	// A promoted column is one that carries all of its coordinates; a
	// compact one carries at most a DefaultSparseThreshold share of them.
	var promoted, carried, skipped uint64
	for _, ct := range cts {
		carried += uint64(ct.Nnz())
		if ct.Nnz() == rows {
			promoted++
		} else {
			skipped += uint64(rows - ct.Nnz())
		}
	}
	counts := &e.shared.sparse
	counts.sparseColumns.Add(uint64(cols) - promoted)
	counts.promotedColumns.Add(promoted)
	counts.skippedCoords.Add(skipped)
	counts.encryptedCoords.Add(carried)
	return &SparseEncryptedMatrix{Rows: rows, Cols: cols, ColCts: cts}, nil
}

// sparseKeysInFlight is how many of one support's key requests SparseDotKeys
// keeps outstanding. A label matrix's keys are one request per row, and one
// at a time each end idles through the other's half of every exchange.
// BenchmarkSparseKeysInFlight is the evidence (512 rows on a 100-coordinate
// support of η = 10 000, 256 bits, the authority behind loopback TCP on the
// same two cores, ms per support, best of 4; Read and Write calls on both
// ends per exchange, range of 4):
//
//	window            1      4        16       64
//	ms                37.3   13.2     8.9      8.4
//	syscalls/exchange 4.0    2.6–2.8  1.5–1.7  1.2–1.3
//
// The wire client multiplexes a connection by request id and the authority
// answers it in order, so nothing else changes: same frames, bytes, exchanges.
// A window's requests share the client's Writes and the authority's reads,
// and the authority answers what it has read with one Write, so the window
// saves syscalls as well as idle time.
const sparseKeysInFlight = 16

// SparseDotKeys derives the support-masked keys for W against every column
// of enc: keys[j][i] is the function key for row i of W masked to column
// j's support. Columns sharing a support (all promoted columns do) share
// one derivation. The SparseKeyService fast path sends coordinate-form
// requests; other services receive ordinary IPKey requests over an η-wide
// masked buffer. Either way sparseKeysInFlight of a support's requests are
// outstanding at a time.
func (e *Engine) SparseDotKeys(enc *SparseEncryptedMatrix, w [][]int64) ([][]*feip.FunctionKey, error) {
	return e.sparseDotKeys(enc, w, sparseKeysInFlight)
}

func (e *Engine) sparseDotKeys(enc *SparseEncryptedMatrix, w [][]int64, inFlight int) ([][]*feip.FunctionKey, error) {
	wRows, wCols, err := Shape(w)
	if err != nil {
		return nil, err
	}
	if wCols != enc.Rows {
		return nil, fmt.Errorf("%w: W is %dx%d but encrypted X has %d rows", ErrShape, wRows, wCols, enc.Rows)
	}
	if len(enc.ColCts) != enc.Cols {
		return nil, fmt.Errorf("%w: %d ciphertexts for a matrix declaring %d", ErrShape, len(enc.ColCts), enc.Cols)
	}
	ks := e.shared.ks
	sks, hasSparse := ks.(SparseKeyService)
	colKeys := make([][]*feip.FunctionKey, enc.Cols)
	bySupport := make(map[string][]*feip.FunctionKey)
	var derived uint64
	for j, ct := range enc.ColCts {
		if ct == nil {
			return nil, fmt.Errorf("%w: nil sparse ciphertext %d", ErrShape, j)
		}
		if ct.Eta != enc.Rows {
			return nil, fmt.Errorf("%w: ciphertext %d has η=%d, want %d", ErrShape, j, ct.Eta, enc.Rows)
		}
		// The rows of w are indexed by the support below, before any
		// evaluator has seen this view.
		if err := checkSupport(j, ct.Idx, len(ct.Ct), enc.Rows); err != nil {
			return nil, err
		}
		sig := supportSig(ct.Idx)
		if keys, ok := bySupport[sig]; ok {
			colKeys[j] = keys
			continue
		}
		// A requester's scratch is the vector it sends: the row gathered
		// over the support or, for the dense fallback, the η-wide masked
		// row, zeroed after each use.
		newScratch := func() []int64 {
			if hasSparse {
				return make([]int64, 0, len(ct.Idx))
			}
			return make([]int64, enc.Rows)
		}
		keys := make([]*feip.FunctionKey, wRows)
		err := par.ForEachChunk(wRows, 1, inFlight, newScratch, func(i, _ int, ys []int64) error {
			row := w[i]
			var fk *feip.FunctionKey
			var err error
			if hasSparse {
				for _, c := range ct.Idx {
					ys = append(ys, row[c])
				}
				fk, err = sks.IPKeySparse(enc.Rows, ct.Idx, ys)
			} else {
				for _, c := range ct.Idx {
					ys[c] = row[c]
				}
				fk, err = ks.IPKey(ys)
				for _, c := range ct.Idx {
					ys[c] = 0
				}
			}
			if err != nil {
				return fmt.Errorf("securemat: masked key for row %d, column %d: %w", i, j, err)
			}
			keys[i] = fk
			return nil
		})
		if err != nil {
			return nil, err
		}
		derived += uint64(wRows)
		bySupport[sig] = keys
		colKeys[j] = keys
	}
	e.shared.sparse.maskedKeys.Add(derived)
	return colKeys, nil
}

// supportSig packs a support into a map key for per-call deduplication.
func supportSig(idx []int) string {
	b := make([]byte, 0, len(idx)*3)
	for _, i := range idx {
		for u := uint(i); ; u >>= 7 {
			if u < 0x80 {
				b = append(b, byte(u))
				break
			}
			b = append(b, byte(u)|0x80)
		}
	}
	return string(b)
}

// sparseColumns views a sparse encrypted matrix as evaluator columns: each
// ciphertext on its own support, under its own slice of masked keys. A nil
// ciphertext stays a zero column for checkColumns to refuse.
func sparseColumns(enc *SparseEncryptedMatrix, keys [][]*feip.FunctionKey, w [][]int64) ([]column, error) {
	if err := checkWeights(w, enc.Rows); err != nil {
		return nil, err
	}
	if len(keys) != len(enc.ColCts) {
		return nil, fmt.Errorf("%w: %d key columns for %d ciphertexts", ErrShape, len(keys), len(enc.ColCts))
	}
	cols := make([]column, len(enc.ColCts))
	for j, ct := range enc.ColCts {
		if ct != nil {
			cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: ct.Idx, keys: keys[j]}
		}
	}
	return cols, nil
}

// SecureDotSparse computes Z = W·X over a sparse encrypted matrix with the
// masked keys from SparseDotKeys, solving every output cell's discrete log
// (the sparse analogue of SecureDot). Each column's numerator walk touches
// only its nnz coordinates.
func (e *Engine) SecureDotSparse(enc *SparseEncryptedMatrix, keys [][]*feip.FunctionKey, w [][]int64, opts ComputeOptions) ([][]int64, error) {
	cols, err := sparseColumns(enc, keys, w)
	if err != nil {
		return nil, err
	}
	return e.solveColumns(cols, enc.Cols, w, opts)
}

// SecureDotTopK computes, for each sample (column) of the batch, the k
// largest logits of W·X with their row indices — solving only those k
// discrete logs per column instead of all wRows (dlog's descending
// simultaneous scan; exactness argument in internal/dlog/topk.go). The
// result is one descending []dlog.TopKHit per column. The engine's top-k
// counters account every scan, including those that ran without a ceiling
// because opts.InputMagnitude was left at zero.
func (e *Engine) SecureDotTopK(enc *SparseEncryptedMatrix, keys [][]*feip.FunctionKey, w [][]int64, k int, opts ComputeOptions) ([][]dlog.TopKHit, error) {
	if k <= 0 {
		return nil, fmt.Errorf("securemat: top-k count must be positive, got %d", k)
	}
	cols, err := sparseColumns(enc, keys, w)
	if err != nil {
		return nil, err
	}
	if err := e.checkColumns(cols, enc.Cols, w); err != nil {
		return nil, err
	}
	out := make([][]dlog.TopKHit, len(cols))
	counts := &e.shared.sparse
	err = e.evalColumns(cols, w, opts, func(j int, gammas []uint64) error {
		ceiling := e.solver.Bound()
		if opts.InputMagnitude > 0 {
			ceiling = logitCeiling(w, cols[j].support, opts.InputMagnitude, ceiling)
		} else {
			counts.topkUnbounded.Add(1)
		}
		hits, stats, err := e.solver.TopKMontBounded(gammas, k, ceiling)
		if err != nil {
			if errors.Is(err, dlog.ErrNotFound) {
				e.shared.dlog.outOfBound.Add(1)
			}
			return fmt.Errorf("securemat: top-%d of column %d: %w", k, j, err)
		}
		counts.topkSolved.Add(uint64(stats.Solved))
		counts.topkSkipped.Add(uint64(stats.Skipped))
		counts.topkRounds.Add(uint64(stats.Rounds))
		out[j] = hits
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DotTopK derives the masked keys and extracts the per-sample top-k in one
// call — the serving shape of the extreme multi-label head.
func (e *Engine) DotTopK(enc *SparseEncryptedMatrix, w [][]int64, k int, opts ComputeOptions) ([][]dlog.TopKHit, error) {
	keys, err := e.SparseDotKeys(enc, w)
	if err != nil {
		return nil, err
	}
	return e.SecureDotTopK(enc, keys, w, k, opts)
}

// logitCeiling bounds any output cell of the column with support idx:
// |⟨w_i, x⟩| ≤ Σ_{t∈supp}|w_i[t]|·mag. Sums are clamped at the solver
// bound (which already caps every decryptable value), so the plaintext
// walk cannot overflow and the ceiling never loosens past the bound.
func logitCeiling(w [][]int64, idx []int, mag, bound int64) int64 {
	limit := bound / mag
	var worst int64
	for _, row := range w {
		var sum int64
		for _, c := range idx {
			v := row[c]
			if v < 0 {
				v = -v
			}
			sum += v
			if sum >= limit || sum < 0 {
				return bound
			}
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst * mag
}
