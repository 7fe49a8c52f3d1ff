package securemat_test

// What the sparse pipeline shows the other parties. The authority (and
// anyone on the cleartext key-request wire) receives one request per
// distinct support and label row, carrying the support and the row's
// weights on it. The server holds a key for every label row over each
// support, so it can decrypt all L scores of a top-k request, not just the
// k it returns, and with L ≥ nnz those scores determine the input's values
// on the support. docs/SPARSE.md ("What sparsity leaks") states both.

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/securemat"
)

// keyRequest is one inner-product key request as its receiver sees it: the
// coordinates and the values at them (for a dense request, its non-zero
// entries).
type keyRequest struct {
	idx  []int
	vals []int64
}

func (r keyRequest) String() string { return fmt.Sprint(r.idx, r.vals) }

// requestLog records key requests; safe for the engine's concurrent calls.
type requestLog struct {
	mu   sync.Mutex
	reqs []keyRequest
}

func (l *requestLog) record(r keyRequest) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r)
	l.mu.Unlock()
}

// recordingMaskedService records every dense IPKey request of a key
// service without IPKeySparse — the view of a node behind the masked
// fallback.
type recordingMaskedService struct {
	maskedOnlyService
	log *requestLog
}

func (s recordingMaskedService) IPKey(y []int64) (*feip.FunctionKey, error) {
	var r keyRequest
	for c, v := range y {
		if v != 0 {
			r.idx = append(r.idx, c)
			r.vals = append(r.vals, v)
		}
	}
	s.log.record(r)
	return s.maskedOnlyService.IPKey(y)
}

// recordingSparseService forwards to the in-process authority and records
// every coordinate-form request it receives — the test's stand-in for a
// curious authority (or wire observer).
type recordingSparseService struct {
	recordingMaskedService
}

var _ securemat.SparseKeyService = recordingSparseService{}

func (s recordingSparseService) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	s.log.record(keyRequest{idx: slices.Clone(idx), vals: slices.Clone(vals)})
	return s.auth.IPKeySparse(eta, idx, vals)
}

// TestSparseKeyRequestsCarrySupport pins what the sparse key plane sends:
// each distinct support is requested exactly once per row of W, carrying
// the ciphertext's support and w_i on it; columns sharing a support share
// one derivation; and the product equals the plaintext. The dense masked
// fallback sends η-wide vectors whose non-zero entries are the same
// support and weights, so it gives the support away just the same.
func TestSparseKeyRequestsCarrySupport(t *testing.T) {
	const (
		eta   = 40
		wRows = 3
	)
	// Four columns: a support of 2, a duplicate of it (shared derivation,
	// no second request), a support of 5 and one of 9 (all compact).
	x := make([][]int64, eta)
	for i := range x {
		x[i] = make([]int64, 4)
	}
	for _, i := range []int{5, 20} {
		x[i][0], x[i][1] = int64(i+1), int64(2*i+1)
	}
	for _, i := range []int{1, 8, 13, 27, 39} {
		x[i][2] = int64(i + 2)
	}
	for _, i := range []int{0, 4, 9, 16, 22, 25, 31, 36, 38} {
		x[i][3] = int64(i + 3)
	}
	// Every weight is non-zero, so a masked row's non-zero entries are
	// exactly the support.
	w := sparseMatrix(rand.New(rand.NewSource(17)), wRows, eta, 1)

	for _, name := range []string{"coordinate form", "masked fallback"} {
		t.Run(name, func(t *testing.T) {
			auth, base := newFixture(t, 1_000_000)
			masked := recordingMaskedService{maskedOnlyService{auth}, &requestLog{}}
			var ks securemat.KeyService = masked
			if name == "coordinate form" {
				ks = recordingSparseService{masked}
			}
			eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng = eng.WithSolver(base.Solver())
			enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
			if err != nil {
				t.Fatal(err)
			}
			keys, err := eng.SparseDotKeys(enc, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w {
				if keys[0][i] != keys[1][i] {
					t.Errorf("row %d: columns with identical supports did not share a key", i)
				}
			}
			z, err := eng.SecureDotSparse(enc, keys, w, securemat.ComputeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !matEqual(z, plainDot(w, x)) {
				t.Fatal("sparse dot diverges from plaintext")
			}

			seen := map[string]int{}
			for _, r := range masked.log.reqs {
				seen[r.String()]++
			}
			want := map[string]int{}
			for _, j := range []int{0, 2, 3} {
				idx := enc.ColCts[j].Idx
				for _, row := range w {
					r := keyRequest{idx: idx}
					for _, c := range idx {
						r.vals = append(r.vals, row[c])
					}
					want[r.String()]++
				}
			}
			if !maps.Equal(seen, want) {
				t.Errorf("key requests %v, want one per support and row: %v", seen, want)
			}
		})
	}
}

// ratRank reduces the system a·v = b over ℚ and returns the rank of a and,
// when a has full column rank, the unique solution v.
func ratRank(a [][]int64, b []int64) (int, []*big.Rat) {
	rows, cols := len(a), len(a[0])
	m := make([][]*big.Rat, rows)
	for i := range m {
		m[i] = make([]*big.Rat, cols+1)
		for c, v := range a[i] {
			m[i][c] = new(big.Rat).SetInt64(v)
		}
		m[i][cols] = new(big.Rat).SetInt64(b[i])
	}
	rank := 0
	for c := 0; c < cols && rank < rows; c++ {
		p := rank
		for p < rows && m[p][c].Sign() == 0 {
			p++
		}
		if p == rows {
			continue
		}
		m[rank], m[p] = m[p], m[rank]
		inv := new(big.Rat).Inv(m[rank][c])
		for k := c; k <= cols; k++ {
			m[rank][k].Mul(m[rank][k], inv)
		}
		for i := range m {
			if i == rank || m[i][c].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m[i][c])
			for k := c; k <= cols; k++ {
				m[i][k].Sub(m[i][k], new(big.Rat).Mul(f, m[rank][k]))
			}
		}
		rank++
	}
	if rank < cols {
		return rank, nil
	}
	v := make([]*big.Rat, cols)
	for c := range v {
		v[c] = m[c][cols]
	}
	return rank, v
}

// TestServerSolvesSparseInputByRank plays the serving side of a top-k
// request: with the one key per label row over the support that the
// request derives, the server decrypts all L scores, not just the top k,
// and solves the L × nnz system on the support over ℚ. With L ≥ nnz (and a
// weight submatrix of full column rank) that gives back the client's
// encoded input exactly; with L < nnz the system is rank-deficient.
func TestServerSolvesSparseInputByRank(t *testing.T) {
	const (
		eta, nnz = 200, 8
		labels   = 16
		k        = 3
	)
	_, eng := newFixture(t, 1_000_000)
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(53))
	encode := func(v float64) int64 {
		e, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// One sample: nnz features in (0, 1] at the codec's two decimals.
	x := make([][]int64, eta)
	for i := range x {
		x[i] = make([]int64, 1)
	}
	for _, c := range rng.Perm(eta)[:nnz] {
		x[c][0] = encode(float64(rng.Intn(100)+1) / 100)
	}
	// Label weights clamp-encoded like the serving head's (±4).
	w := make([][]int64, labels)
	for i := range w {
		w[i] = make([]int64, eta)
		for c := range w[i] {
			w[i][c] = encode(rng.Float64()*8 - 4)
		}
	}
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	support := enc.ColCts[0].Idx // in cleartext on the predict-topk frame
	if len(support) != nnz {
		t.Fatalf("support has %d coordinates, want %d", len(support), nnz)
	}

	for _, l := range []int{labels, nnz - 1} {
		wl := w[:l]
		keys, err := eng.SparseDotKeys(enc, wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SecureDotTopK(enc, keys, wl, k, securemat.ComputeOptions{InputMagnitude: codec.Factor()}); err != nil {
			t.Fatal(err)
		}
		// The same keys open every score.
		z, err := eng.SecureDotSparse(enc, keys, wl, securemat.ComputeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a := make([][]int64, l)
		b := make([]int64, l)
		for i, row := range wl {
			for _, c := range support {
				a[i] = append(a[i], row[c])
			}
			b[i] = z[i][0]
		}
		rank, v := ratRank(a, b)
		if l < nnz {
			if rank >= nnz {
				t.Errorf("L = %d: rank %d, want < %d", l, rank, nnz)
			}
			continue
		}
		if rank != nnz || v == nil {
			t.Fatalf("L = %d: rank %d, want %d", l, rank, nnz)
		}
		for t0, c := range support {
			if !v[t0].IsInt() || v[t0].Num().Int64() != x[c][0] {
				t.Errorf("L = %d: solved x[%d] = %v, client encoded %d", l, c, v[t0], x[c][0])
			}
		}
	}
}
