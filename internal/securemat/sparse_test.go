package securemat_test

// The sparse pipeline end to end: coordinate-form encryption with density
// routing, support-masked keys (sparse fast path AND the dense masked
// fallback), full sparse decryption pinned against the plaintext product,
// top-k extraction pinned against the full product, and the observability
// counters behind /metrics. Runs under `make race` via the securemat
// package test set.

import (
	"errors"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// sparseMatrix draws a rows×cols matrix with roughly the given fraction of
// non-zero entries, values in [-10, 10] \ {0}.
func sparseMatrix(rng *rand.Rand, rows, cols int, density float64) [][]int64 {
	x := make([][]int64, rows)
	for i := range x {
		x[i] = make([]int64, cols)
		for j := range x[i] {
			if rng.Float64() < density {
				v := rng.Int63n(21) - 10
				if v == 0 {
					v = 5
				}
				x[i][j] = v
			}
		}
	}
	return x
}

// maskedOnlyService hides the SparseKeyService extension of the wrapped
// authority, forcing SparseDotKeys down the dense masked-vector fallback.
type maskedOnlyService struct {
	auth *authority.Authority
}

func (s maskedOnlyService) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	return s.auth.FEIPPublic(eta)
}

func (s maskedOnlyService) FEBOPublic() (*febo.PublicKey, error) { return s.auth.FEBOPublic() }

func (s maskedOnlyService) IPKey(y []int64) (*feip.FunctionKey, error) { return s.auth.IPKey(y) }

func (s maskedOnlyService) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	return s.auth.BOKey(cmt, op, y)
}

// TestSecureDotSparseMatchesPlain pins the whole sparse pipeline against
// the plaintext product across densities (0 is an all-zero matrix) on both
// key-derivation paths: the authority's coordinate-form fast path and the
// dense masked-vector fallback used when the service lacks IPKeySparse.
// dotSparse derives the masked keys and solves every cell.
func dotSparse(eng *securemat.Engine, enc *securemat.SparseEncryptedMatrix, w [][]int64) ([][]int64, error) {
	keys, err := eng.SparseDotKeys(enc, w)
	if err != nil {
		return nil, err
	}
	return eng.SecureDotSparse(enc, keys, w, securemat.ComputeOptions{})
}

func TestSecureDotSparseMatchesPlain(t *testing.T) {
	const (
		rows, cols = 40, 6
		wRows      = 7
	)
	for _, fallback := range []bool{false, true} {
		name := "sparse-key-service"
		if fallback {
			name = "masked-fallback"
		}
		t.Run(name, func(t *testing.T) {
			auth, eng := newFixture(t, 1_000_000)
			if fallback {
				masked, err := securemat.NewEngine(maskedOnlyService{auth}, securemat.EngineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				eng = masked.WithSolver(eng.Solver())
			}
			rng := rand.New(rand.NewSource(31))
			w := sparseMatrix(rng, wRows, rows, 0.8)
			for _, density := range []float64{0, 0.05, 0.5, 1} {
				x := sparseMatrix(rng, rows, cols, density)
				enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
				if err != nil {
					t.Fatalf("density=%g: EncryptSparse: %v", density, err)
				}
				z, err := dotSparse(eng, enc, w)
				if err != nil {
					t.Fatalf("density=%g: DotSparse: %v", density, err)
				}
				if want := plainDot(w, x); !matEqual(z, want) {
					t.Fatalf("density=%g: sparse dot diverges from plaintext", density)
				}
			}
		})
	}
}

// TestSparseDotKeysInFlightMatchesSequential derives the masked keys of one
// batch with one request outstanding at a time and with the window
// SparseDotKeys ships, and compares them key for key: on the coordinate-form
// fast path and on the dense masked fallback of a service without
// IPKeySparse. 40 label rows against a window of 16 leave a ragged last
// round.
func TestSparseDotKeysInFlightMatchesSequential(t *testing.T) {
	const eta, cols, wRows = 120, 5, 40
	auth, base := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(37))
	x := sparseMatrix(rng, eta, cols, 0.1)
	w := randMatrix(rng, wRows, eta, -50, 50)
	services := map[string]securemat.KeyService{
		"coordinate form": auth,
		"masked fallback": maskedOnlyService{auth},
	}
	for name, ks := range services {
		eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng = eng.WithSolver(base.Solver())
		enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sequential, err := eng.SparseDotKeysInFlight(enc, w, 1)
		if err != nil {
			t.Fatalf("%s: one at a time: %v", name, err)
		}
		inFlight, err := eng.SparseDotKeys(enc, w)
		if err != nil {
			t.Fatalf("%s: in flight: %v", name, err)
		}
		for j := range sequential {
			for i := range sequential[j] {
				if sequential[j][i].K.Cmp(inFlight[j][i].K) != 0 {
					t.Fatalf("%s: key (%d,%d) differs between the sequential and the in-flight derivation", name, j, i)
				}
			}
		}
		z, err := eng.SecureDotSparse(enc, inFlight, w, securemat.ComputeOptions{})
		if err != nil || !matEqual(z, plainDot(w, x)) {
			t.Fatalf("%s: product under the in-flight keys = %v, %v", name, z, err)
		}
	}
}

// TestEncryptSparseDensityRouting checks the router: low-density columns
// keep their true support, high-density columns are padded to full width,
// and the counters see all of it.
func TestEncryptSparseDensityRouting(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	const rows, cols = 30, 4
	rng := rand.New(rand.NewSource(8))
	x := sparseMatrix(rng, rows, cols, 0.06)
	for i := 0; i < rows; i++ {
		x[i][0] = int64(i%9 + 1) // force column 0 fully dense
	}
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.ColCts[0].Nnz(); got != rows {
		t.Errorf("promoted column carries %d coords, want full %d", got, rows)
	}
	for j := 1; j < cols; j++ {
		if enc.ColCts[j].Nnz() >= rows/2 {
			t.Errorf("column %d not compact: %d coords", j, enc.ColCts[j].Nnz())
		}
	}
	st := eng.SparseStats()
	if st.PromotedColumns != 1 || st.SparseColumns != cols-1 {
		t.Errorf("router counters after mixed batch: %+v", st)
	}
	if st.EncryptedCoords == 0 || st.SkippedCoords == 0 {
		t.Errorf("coordinate counters empty: %+v", st)
	}
	if st.EncryptedCoords+st.SkippedCoords != uint64(rows*cols) {
		t.Errorf("encrypted(%d)+skipped(%d) != %d coords", st.EncryptedCoords, st.SkippedCoords, rows*cols)
	}

	// The sparse form is column-oriented only.
	if _, err := eng.EncryptSparse(x, securemat.EncryptOptions{WithRows: true}); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("EncryptSparse with WithRows: %v, want ErrShape", err)
	}
}

// referenceTopK sorts one output column the way TopK promises: value
// descending, index ascending on ties, trimmed to k.
func referenceTopK(col []int64, k int) []dlog.TopKHit {
	hits := make([]dlog.TopKHit, len(col))
	for i, v := range col {
		hits[i] = dlog.TopKHit{Index: i, Value: v}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Value != hits[b].Value {
			return hits[a].Value > hits[b].Value
		}
		return hits[a].Index < hits[b].Index
	})
	return hits[:k]
}

// TestSecureDotTopKMatchesFullProduct pins per-column top-k hits against
// the full plaintext product and asserts the solved/skipped accounting —
// the engine-level face of the "solves exactly k dlogs" criterion. The
// label weights are spaced wider than one giant-step round so every label
// resolves in its own round and the scan provably skips the losers.
func TestSecureDotTopKMatchesFullProduct(t *testing.T) {
	const (
		rows, cols = 24, 3
		labels     = 50
		k          = 5
	)
	_, eng := newFixture(t, 1_000_000)
	spacing := int64(eng.Solver().TableSize()) + 1
	// x has a single nonzero per column (coordinate 0), so ⟨w_i, x_j⟩ is
	// exactly w[i][0] — a ladder of distinct, round-separated logits.
	x := make([][]int64, rows)
	for i := range x {
		x[i] = make([]int64, cols)
	}
	for j := 0; j < cols; j++ {
		x[0][j] = 1
	}
	rng := rand.New(rand.NewSource(12))
	w := sparseMatrix(rng, labels, rows, 0.7)
	for i := 0; i < labels; i++ {
		w[i][0] = int64(i) * spacing
	}
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := eng.DotTopK(enc, w, k, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plainDot(w, x)
	if len(hits) != cols {
		t.Fatalf("%d hit columns, want %d", len(hits), cols)
	}
	for j := 0; j < cols; j++ {
		col := make([]int64, labels)
		for i := range col {
			col[i] = want[i][j]
		}
		ref := referenceTopK(col, k)
		if len(hits[j]) != k {
			t.Fatalf("column %d: %d hits, want %d", j, len(hits[j]), k)
		}
		for r := 0; r < k; r++ {
			if hits[j][r] != ref[r] {
				t.Fatalf("column %d rank %d: got %+v, want %+v", j, r, hits[j][r], ref[r])
			}
		}
	}
	// The input-magnitude ceiling must not change the ranking, only the
	// scan's starting round (|x| ≤ 1 here, so the ceiling is valid).
	keys, err := eng.SparseDotKeys(enc, w)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := eng.SecureDotTopK(enc, keys, w, k, securemat.ComputeOptions{InputMagnitude: 1})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		for r := 0; r < k; r++ {
			if bounded[j][r] != hits[j][r] {
				t.Fatalf("ceiling scan diverges at column %d rank %d: %+v vs %+v", j, r, bounded[j][r], hits[j][r])
			}
		}
	}

	st := eng.SparseStats()
	// Round-separated logits: each scan resolves exactly k labels, twice
	// (plain and ceiling passes).
	if st.TopKSolved != uint64(2*k*cols) {
		t.Errorf("TopKSolved = %d, want exactly %d", st.TopKSolved, 2*k*cols)
	}
	if st.TopKSolved+st.TopKSkipped != uint64(2*labels*cols) {
		t.Errorf("solved(%d)+skipped(%d) != %d cells", st.TopKSolved, st.TopKSkipped, 2*labels*cols)
	}
	if st.TopKRounds == 0 {
		t.Error("TopKRounds stayed zero across three scans")
	}
	// Only the first pass omitted the input magnitude: one ceiling-less
	// scan per column, visible to an operator.
	if st.TopKUnbounded != cols {
		t.Errorf("TopKUnbounded = %d, want %d", st.TopKUnbounded, cols)
	}
}

// TestNotFoundNamesTheCell: a value outside the solver bound surfaces as
// dlog.ErrNotFound wrapped with the (row, column) of the offending cell, on
// the dense and the sparse evaluator alike — both finish their cells
// through the same helper — and is counted: the out-of-bound counter moves
// by exactly the failing cells, the look-up and round counters by the work
// done up to and including the miss.
func TestNotFoundNamesTheCell(t *testing.T) {
	_, eng := newFixture(t, 100)
	// W·X = [[1 2 100] [10 10 1000]]: ⟨w_1, x_2⟩ = 1000 is the only cell
	// beyond the bound, and the last one either evaluator reaches. At bound
	// 100 the solver has m = 15, so 1 and 2 sit in the centre window, 10
	// takes one round, 100 seven, and the miss walks all seven.
	const wantLookups, wantRounds = 6, 0 + 0 + 7 + 1 + 1 + 7
	x := [][]int64{{1, 1, 100}, {0, 1, 0}}
	w := [][]int64{{1, 1}, {10, 0}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evaluators := []struct {
		name string
		run  func() error
	}{
		{"dense", func() error { _, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{}); return err }},
		{"sparse", func() error { _, err := dotSparse(eng, sparse, w); return err }},
	}
	for _, ev := range evaluators {
		before := eng.DlogStats()
		err := ev.run()
		if !errors.Is(err, dlog.ErrNotFound) {
			t.Errorf("%s: err = %v, want dlog.ErrNotFound", ev.name, err)
		} else if !strings.Contains(err.Error(), "cell (1,2)") {
			t.Errorf("%s: err = %q does not name cell (1,2)", ev.name, err)
		}
		after := eng.DlogStats()
		if got := after.OutOfBound - before.OutOfBound; got != 1 {
			t.Errorf("%s: out-of-bound counter moved by %d, want 1", ev.name, got)
		}
		if l, r := after.Lookups-before.Lookups, after.Rounds-before.Rounds; l != wantLookups || r != wantRounds {
			t.Errorf("%s: counted %d look-ups, %d rounds; want %d, %d", ev.name, l, r, wantLookups, wantRounds)
		}
	}
	// The top-k scan counts its miss too: top-2 of column 2 needs the
	// unreachable 1000.
	before := eng.DlogStats().OutOfBound
	if _, err := eng.DotTopK(sparse, w, 2, securemat.ComputeOptions{}); !errors.Is(err, dlog.ErrNotFound) {
		t.Errorf("top-k: err = %v, want dlog.ErrNotFound", err)
	}
	if got := eng.DlogStats().OutOfBound - before; got != 1 {
		t.Errorf("top-k: out-of-bound counter moved by %d, want 1", got)
	}
	// An evaluation that stays inside the bound leaves the counter alone.
	before = eng.DlogStats().OutOfBound
	if _, err := eng.Dot(enc, [][]int64{{1, 1}, {1, 0}}, securemat.ComputeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := eng.DlogStats().OutOfBound - before; got != 0 {
		t.Errorf("in-bound evaluation moved the out-of-bound counter by %d", got)
	}
}

// TestSparseKeyTrafficCompact asserts the two key-side wins: coordinate-
// form requests account only nnz scalars (not η), and columns sharing a
// support share one derivation.
func TestSparseKeyTrafficCompact(t *testing.T) {
	auth, eng := newFixture(t, 1_000_000)
	const rows, wRows = 50, 3
	rng := rand.New(rand.NewSource(44))
	// Two columns with identical supports, one distinct.
	x := make([][]int64, rows)
	for i := range x {
		x[i] = make([]int64, 3)
	}
	for _, i := range []int{3, 17, 42} {
		x[i][0], x[i][1] = int64(i+1), int64(2*i+1)
	}
	x[9][2] = 7
	w := sparseMatrix(rng, wRows, rows, 0.8)
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	auth.ResetStats()
	keys, err := eng.SparseDotKeys(enc, w)
	if err != nil {
		t.Fatal(err)
	}
	// Same support ⇒ literally the same *FunctionKey pointers.
	for i := 0; i < wRows; i++ {
		if keys[0][i] != keys[1][i] {
			t.Errorf("row %d: columns with identical supports did not share a key", i)
		}
	}
	st := auth.Stats()
	if want := uint64(2 * wRows); st.IPKeys != want {
		t.Errorf("authority issued %d keys, want %d (two distinct supports)", st.IPKeys, want)
	}
	if want := uint64(wRows * (3 + 1)); st.IPKeyScalars != want {
		t.Errorf("key traffic %d scalars, want %d (nnz-proportional)", st.IPKeyScalars, want)
	}
	if got := eng.SparseStats().MaskedKeys; got != st.IPKeys {
		t.Errorf("engine counted %d masked keys, authority issued %d", got, st.IPKeys)
	}
}

// TestSparseEngineMetrics exercises the structural MetricsSource: every
// sparse counter family must appear in Prometheus text format.
func TestSparseEngineMetrics(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(2))
	x := sparseMatrix(rng, 20, 2, 0.1)
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DotTopK(enc, sparseMatrix(rng, 8, 20, 0.5), 2, securemat.ComputeOptions{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	eng.WriteMetrics(&sb)
	out := sb.String()
	for _, fam := range []string{
		"cryptonn_securemat_sparse_columns_total",
		"cryptonn_securemat_promoted_columns_total",
		"cryptonn_securemat_skipped_coords_total",
		"cryptonn_securemat_encrypted_coords_total",
		"cryptonn_securemat_masked_keys_total",
		"cryptonn_securemat_topk_solved_total",
		"cryptonn_securemat_topk_skipped_total",
		"cryptonn_securemat_topk_rounds_total",
		"cryptonn_securemat_topk_unbounded_total",
		"cryptonn_securemat_dlog_lookups_total",
		"cryptonn_securemat_dlog_rounds_total",
		"cryptonn_securemat_dlog_out_of_bound_total",
		"cryptonn_securemat_dotkey_cache_hits_total",
		"cryptonn_securemat_dotkey_cache_misses_total",
	} {
		if !strings.Contains(out, "\n"+fam+" ") {
			t.Errorf("metrics output missing sample for %s", fam)
		}
		if !strings.Contains(out, "# TYPE "+fam+" counter") {
			t.Errorf("metrics output missing TYPE line for %s", fam)
		}
	}
}

// TestSparseDotShapeErrors covers the validation surface of the sparse
// dot and top-k entry points.
func TestSparseDotShapeErrors(t *testing.T) {
	auth, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(3))
	x := sparseMatrix(rng, 10, 2, 0.2)
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := sparseMatrix(rng, 4, 10, 0.5)
	keys, err := eng.SparseDotKeys(enc, w)
	if err != nil {
		t.Fatal(err)
	}
	badW := sparseMatrix(rng, 4, 9, 0.5)
	if _, err := eng.SparseDotKeys(enc, badW); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("SparseDotKeys with mismatched W: %v, want ErrShape", err)
	}
	if _, err := eng.SecureDotSparse(enc, keys, badW, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("mismatched W: %v, want ErrShape", err)
	}
	if _, err := eng.SecureDotTopK(enc, keys[:1], w, 2, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("short key set: %v, want ErrShape", err)
	}
	if _, err := eng.SecureDotTopK(enc, keys, w, 0, securemat.ComputeOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	// Encrypt-only sessions cannot decrypt.
	encOnly, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encOnly.SecureDotSparse(enc, keys, w, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrNoSolver) {
		t.Errorf("solverless sparse dot: %v, want ErrNoSolver", err)
	}
	if _, err := encOnly.SecureDotTopK(enc, keys, w, 2, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrNoSolver) {
		t.Errorf("solverless top-k: %v, want ErrNoSolver", err)
	}
}
