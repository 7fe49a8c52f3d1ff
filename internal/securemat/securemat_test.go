package securemat_test

import (
	"errors"
	"math/rand"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// newFixture builds an in-process authority plus an Engine session over it
// with a solver at the given bound.
func newFixture(t testing.TB, bound int64) (*authority.Authority, *securemat.Engine) {
	t.Helper()
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatalf("authority.New: %v", err)
	}
	solver, err := dlog.NewSolver(group.TestParams(), bound)
	if err != nil {
		t.Fatalf("dlog.NewSolver: %v", err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatalf("securemat.NewEngine: %v", err)
	}
	eng = eng.WithSolver(solver)
	return auth, eng
}

func plainDot(w, x [][]int64) [][]int64 {
	rows, inner, cols := len(w), len(x), len(x[0])
	z := make([][]int64, rows)
	for i := range z {
		z[i] = make([]int64, cols)
		for j := 0; j < cols; j++ {
			var acc int64
			for k := 0; k < inner; k++ {
				acc += w[i][k] * x[k][j]
			}
			z[i][j] = acc
		}
	}
	return z
}

func matEqual(a, b [][]int64) bool {
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

func randMatrix(rng *rand.Rand, rows, cols int, lo, hi int64) [][]int64 {
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			m[i][j] = lo + rng.Int63n(hi-lo+1)
		}
	}
	return m
}

func TestSecureDotMatchesPlaintext(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(11))
	x := randMatrix(rng, 4, 3, -20, 20) // 4 features x 3 samples
	w := randMatrix(rng, 2, 4, -20, 20) // 2 units x 4 features

	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatalf("DotKeys: %v", err)
	}
	z, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatalf("SecureDot: %v", err)
	}
	if want := plainDot(w, x); !matEqual(z, want) {
		t.Errorf("SecureDot = %v, want %v", z, want)
	}
}

func TestSecureDotParallelMatchesSequential(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(13))
	x := randMatrix(rng, 5, 6, -10, 10)
	w := randMatrix(rng, 3, 5, -10, 10)

	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(seq, par) {
		t.Error("parallel result differs from sequential")
	}
}

func TestSecureDotRowsComputesDXT(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(17))
	x := randMatrix(rng, 4, 5, -10, 10) // 4 features x 5 samples
	d := randMatrix(rng, 3, 5, -10, 10) // 3 units x 5 samples (like dZ)

	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true, WithRows: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := eng.SecureDotRows(enc, keys, d, securemat.ComputeOptions{})
	if err != nil {
		t.Fatalf("SecureDotRows: %v", err)
	}
	// want = D · Xᵀ, i.e. want[i][k] = Σ_j d[i][j] * x[k][j]
	want := make([][]int64, 3)
	for i := range want {
		want[i] = make([]int64, 4)
		for k := 0; k < 4; k++ {
			for j := 0; j < 5; j++ {
				want[i][k] += d[i][j] * x[k][j]
			}
		}
	}
	if !matEqual(g, want) {
		t.Errorf("SecureDotRows = %v, want %v", g, want)
	}
}

func TestSecureElementwiseAllOps(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	x := [][]int64{{10, 20}, {-30, 40}}
	tests := []struct {
		name string
		f    securemat.Function
		y    [][]int64
		want [][]int64
	}{
		{"add", securemat.ElementwiseAdd, [][]int64{{1, 2}, {3, -4}}, [][]int64{{11, 22}, {-27, 36}}},
		{"sub", securemat.ElementwiseSub, [][]int64{{1, 2}, {3, -4}}, [][]int64{{9, 18}, {-33, 44}}},
		{"mul", securemat.ElementwiseMul, [][]int64{{2, -3}, {4, 5}}, [][]int64{{20, -60}, {-120, 200}}},
		{"div", securemat.ElementwiseDiv, [][]int64{{2, 4}, {-3, 8}}, [][]int64{{5, 5}, {10, 5}}},
	}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			keys, err := eng.ElementwiseKeys(enc, tt.f, tt.y)
			if err != nil {
				t.Fatalf("ElementwiseKeys: %v", err)
			}
			z, err := eng.SecureElementwise(enc, keys, tt.f, tt.y, securemat.ComputeOptions{})
			if err != nil {
				t.Fatalf("SecureElementwise: %v", err)
			}
			if !matEqual(z, tt.want) {
				t.Errorf("got %v, want %v", z, tt.want)
			}
		})
	}
}

func TestSecureElementwiseParallel(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(29))
	x := randMatrix(rng, 6, 7, -50, 50)
	y := randMatrix(rng, 6, 7, -50, 50)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.ElementwiseKeys(enc, securemat.ElementwiseAdd, y)
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.SecureElementwise(enc, keys, securemat.ElementwiseAdd, y, securemat.ComputeOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		for j := range x[i] {
			if z[i][j] != x[i][j]+y[i][j] {
				t.Fatalf("cell (%d,%d): got %d want %d", i, j, z[i][j], x[i][j]+y[i][j])
			}
		}
	}
}

func TestShapeValidation(t *testing.T) {
	if _, _, err := securemat.Shape(nil); !errors.Is(err, securemat.ErrShape) {
		t.Error("nil matrix should fail")
	}
	if _, _, err := securemat.Shape([][]int64{{}}); !errors.Is(err, securemat.ErrShape) {
		t.Error("empty row should fail")
	}
	if _, _, err := securemat.Shape([][]int64{{1, 2}, {3}}); !errors.Is(err, securemat.ErrShape) {
		t.Error("ragged matrix should fail")
	}
	r, c, err := securemat.Shape([][]int64{{1, 2, 3}, {4, 5, 6}})
	if err != nil || r != 2 || c != 3 {
		t.Errorf("Shape = (%d,%d,%v)", r, c, err)
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	_, eng := newFixture(t, 1000)
	x := [][]int64{{1, 2}, {3, 4}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}

	wBad := [][]int64{{1, 2, 3}} // W cols != X rows
	keys, err := eng.DotKeys(wBad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SecureDot(enc, keys, wBad, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("mismatched W: err = %v", err)
	}

	yBad := [][]int64{{1, 2, 3}, {4, 5, 6}}
	if _, err := eng.ElementwiseKeys(enc, securemat.ElementwiseAdd, yBad); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("mismatched Y: err = %v", err)
	}

	if _, err := eng.ElementwiseKeys(enc, securemat.DotProduct, x); !errors.Is(err, securemat.ErrFunction) {
		t.Errorf("dot-product as elementwise: err = %v", err)
	}

	// Row orientation absent.
	if _, err := eng.SecureDotRows(enc, nil, [][]int64{{1, 2}}, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("missing row cts: err = %v", err)
	}
	// Element ciphertexts absent.
	encNoElems, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ElementwiseKeys(encNoElems, securemat.ElementwiseAdd, x); !errors.Is(err, securemat.ErrShape) {
		t.Errorf("missing elem cts: err = %v", err)
	}
}

func TestPolicyEnforcement(t *testing.T) {
	// An authority that only permits addition must reject other requests.
	auth, err := authority.New(group.TestParams(), authority.Policy{
		BasicOps: map[febo.Op]bool{febo.OpAdd: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.IPKey([]int64{1, 2}); !errors.Is(err, authority.ErrNotPermitted) {
		t.Errorf("IPKey: err = %v, want ErrNotPermitted", err)
	}
	x := [][]int64{{1}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ElementwiseKeys(enc, securemat.ElementwiseMul, x); !errors.Is(err, authority.ErrNotPermitted) {
		t.Errorf("mul key: err = %v, want ErrNotPermitted", err)
	}
	if _, err := eng.ElementwiseKeys(enc, securemat.ElementwiseAdd, x); err != nil {
		t.Errorf("add key should be permitted: %v", err)
	}
}

func TestAuthorityStats(t *testing.T) {
	auth, eng := newFixture(t, 1000)
	x := [][]int64{{1, 2}, {3, 4}}
	w := [][]int64{{1, 1}, {2, 2}, {3, 3}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DotKeys(w); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ElementwiseKeys(enc, securemat.ElementwiseSub, x); err != nil {
		t.Fatal(err)
	}
	st := auth.Stats()
	if st.IPKeys != 3 {
		t.Errorf("IPKeys = %d, want 3", st.IPKeys)
	}
	if st.IPKeyScalars != 6 { // 3 rows x 2 scalars
		t.Errorf("IPKeyScalars = %d, want 6", st.IPKeyScalars)
	}
	if st.BOKeys != 4 {
		t.Errorf("BOKeys = %d, want 4", st.BOKeys)
	}
	auth.ResetStats()
	if auth.Stats() != (authority.Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestFunctionHelpers(t *testing.T) {
	if securemat.DotProduct.String() == "" {
		t.Error("DotProduct helpers broken")
	}
	if _, ok := securemat.DotProduct.BasicOp(); ok {
		t.Error("dot-product should not map to a basic op")
	}
	if op, ok := securemat.ElementwiseDiv.BasicOp(); !ok || op != febo.OpDiv {
		t.Error("div mapping broken")
	}
}

func TestErrorPropagatesFromParallelWorkers(t *testing.T) {
	// Force a decryption failure (value outside solver bound) and verify
	// the parallel path reports it instead of hanging or panicking.
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	tinySolver, err := dlog.NewSolver(group.TestParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithSolver(tinySolver)
	x := [][]int64{{100, 100}, {100, 100}}
	w := [][]int64{{100, 100}, {100, 100}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 4}); !errors.Is(err, dlog.ErrNotFound) {
		t.Errorf("err = %v, want dlog.ErrNotFound", err)
	}
}
