package securemat_test

// Session-level behavior of the secure compute engine: a fresh dot-key
// derivation per call, tamper detection through the Engine methods,
// solver-less (client) sessions, and the shared-engine concurrency
// contract under the race detector (`make race`).

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// Dot and Elementwise fold key derivation into the computation; the results
// must match the explicit two-step path.
func TestEngineConvenienceMethods(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(31))
	x := randMatrix(rng, 4, 5, -10, 10)
	w := randMatrix(rng, 2, 4, -10, 10)
	y := randMatrix(rng, 4, 5, -10, 10)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.Dot(enc, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(z, plainDot(w, x)) {
		t.Error("Dot mismatch")
	}
	s, err := eng.Elementwise(enc, febo.OpAdd, y, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		for j := range x[i] {
			if s[i][j] != x[i][j]+y[i][j] {
				t.Fatalf("Elementwise (%d,%d) = %d, want %d", i, j, s[i][j], x[i][j]+y[i][j])
			}
		}
	}
}

// An engine without a solver encrypts but refuses to decrypt.
func TestEngineWithoutSolver(t *testing.T) {
	auth, withSolver := newFixture(t, 1000)
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := [][]int64{{1, 2}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true})
	if err != nil {
		t.Fatalf("encrypt-only session must encrypt: %v", err)
	}
	w := [][]int64{{3}}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrNoSolver) {
		t.Errorf("SecureDot: err = %v, want ErrNoSolver", err)
	}
	d := [][]int64{{1, 2}}
	dKeys, err := eng.DotKeysUncached(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SecureDotRows(enc, dKeys, d, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrNoSolver) {
		t.Errorf("SecureDotRows: err = %v, want ErrNoSolver", err)
	}
	if _, err := eng.Elementwise(enc, febo.OpAdd, x, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrNoSolver) {
		t.Errorf("Elementwise: err = %v, want ErrNoSolver", err)
	}
	// The derived view shares caches but gains the solver.
	z, err := eng.WithSolver(withSolver.Solver()).Dot(enc, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(z, plainDot(w, x)) {
		t.Error("WithSolver view decrypted incorrectly")
	}
}

// The dense evaluators must not trust the shape an EncryptedMatrix declares:
// a view whose ciphertext slices disagree with Rows/Cols — core and the
// coalescing dispatcher assemble such views by hand — is refused with
// ErrShape before any arithmetic, for both orientations. (Unchecked, the
// nil entry and the surplus one panicked, and the short slice returned
// [[19 43] [0 0]] for W·X = [[19 22] [43 50]] with a nil error.)
func TestEngineRefusesMisshapenMatrix(t *testing.T) {
	_, eng := newFixture(t, 1000)
	w := [][]int64{{1, 2}, {3, 4}}
	x := [][]int64{{5, 6}, {7, 8}}
	good, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true, WithRows: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	if z, err := eng.Dot(good, w, securemat.ComputeOptions{}); err != nil || !matEqual(z, plainDot(w, x)) {
		t.Fatalf("well-formed Dot = %v, %v", z, err)
	}
	defects := map[string]func(cts []*feip.Ciphertext) []*feip.Ciphertext{
		"nil entry": func(cts []*feip.Ciphertext) []*feip.Ciphertext { return []*feip.Ciphertext{cts[0], nil} },
		"too many":  func(cts []*feip.Ciphertext) []*feip.Ciphertext { return append(cts[:2:2], cts[0]) },
		"too few":   func(cts []*feip.Ciphertext) []*feip.Ciphertext { return cts[:1] },
	}
	for name, breakIt := range defects {
		t.Run(name, func(t *testing.T) {
			bad := *good
			bad.ColCts = breakIt(good.ColCts)
			if z, err := eng.Dot(&bad, w, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
				t.Errorf("Dot = %v, %v; want ErrShape", z, err)
			}
			bad = *good
			bad.RowCts = breakIt(good.RowCts)
			if g, err := eng.SecureDotRows(&bad, keys, w, securemat.ComputeOptions{}); !errors.Is(err, securemat.ErrShape) {
				t.Errorf("SecureDotRows = %v, %v; want ErrShape", g, err)
			}
		})
	}
}

// DotKeysUncached, a name held for benchmark/, is DotKeys: a fresh
// derivation every call, and correct keys.
func TestEngineDotKeysUncached(t *testing.T) {
	auth, eng := newFixture(t, 1_000_000)
	w := [][]int64{{2, 3}}
	if _, err := eng.DotKeysUncached(w); err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeysUncached(w)
	if err != nil {
		t.Fatal(err)
	}
	if st := auth.Stats(); st.IPKeys != 2 {
		t.Errorf("authority issued %d keys, want 2 (one per call)", st.IPKeys)
	}
	x := [][]int64{{1, 1}, {1, 1}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(z, plainDot(w, x)) {
		t.Error("derived keys decrypted incorrectly")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := securemat.NewEngine(nil, securemat.EngineOptions{}); err == nil {
		t.Error("nil key service accepted")
	}
}

// A function key derived for a different (op, y) pair must never decrypt
// to the honest result through the Engine's in-domain pipeline.
func TestEngineElementwiseWrongKeyDetected(t *testing.T) {
	_, eng := newFixture(t, 10_000)
	x := [][]int64{{21}}
	y := [][]int64{{2}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Keys for addition, presented as multiplication keys.
	addKeys, err := eng.ElementwiseKeys(enc, febo.OpAdd, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SecureElementwise(enc, addKeys, febo.OpMul, y, securemat.ComputeOptions{})
	if err == nil && got[0][0] == 42 {
		t.Error("wrong-op key still produced the honest product")
	}
}

// Non-exact division through the Engine: the in-domain path must surface
// febo's inexact-division failure as a not-found with cell coordinates.
func TestEngineInexactDivision(t *testing.T) {
	_, eng := newFixture(t, 10_000)
	x := [][]int64{{84, 85}}
	y := [][]int64{{7, 7}} // 85/7 is not integral
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.ElementwiseKeys(enc, febo.OpDiv, y)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.SecureElementwise(enc, keys, febo.OpDiv, y, securemat.ComputeOptions{})
	if !errors.Is(err, dlog.ErrNotFound) {
		t.Fatalf("err = %v, want dlog.ErrNotFound for the inexact cell", err)
	}
	if !strings.Contains(err.Error(), "cell (0,1)") {
		t.Errorf("err %q does not name the inexact cell", err)
	}
}

// One Engine shared by many goroutines running the full pipeline
// concurrently — the session caches (public keys, dot keys, scratch pool)
// under the race detector.
func TestEngineSharedAcrossGoroutinesHammer(t *testing.T) {
	_, eng := newFixture(t, 1_000_000)
	rng := rand.New(rand.NewSource(77))
	x := randMatrix(rng, 5, 6, -9, 9)
	w := randMatrix(rng, 2, 5, -9, 9)
	y := randMatrix(rng, 5, 6, -9, 9)
	wantDot := plainDot(w, x)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				enc, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true})
				if err != nil {
					errs <- err
					return
				}
				z, err := eng.Dot(enc, w, securemat.ComputeOptions{Parallelism: 2})
				if err != nil {
					errs <- err
					return
				}
				if !matEqual(z, wantDot) {
					errs <- errors.New("concurrent Dot mismatch")
					return
				}
				s, err := eng.Elementwise(enc, febo.OpAdd, y, securemat.ComputeOptions{Parallelism: 2})
				if err != nil {
					errs <- err
					return
				}
				if s[0][0] != x[0][0]+y[0][0] {
					errs <- errors.New("concurrent Elementwise mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
