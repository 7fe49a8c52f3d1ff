package securemat_test

// Session-level behavior of the secure compute engine: key-cache hits and
// eviction, tamper detection through the Engine methods, solver-less
// (client) sessions, and the shared-engine concurrency contract under the
// race detector (`make race`).

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

// The dot-key cache must serve repeated weight matrices without touching
// the authority, and distinct matrices must never collide.
func TestEngineDotKeyCache(t *testing.T) {
	auth, eng := newFixture(t, 1_000_000)
	w1 := [][]int64{{1, 2}, {3, 4}}
	w2 := [][]int64{{1, 2}, {3, 5}} // differs in one entry
	k1, err := eng.DotKeys(w1)
	if err != nil {
		t.Fatal(err)
	}
	k1b, err := eng.DotKeys(w1)
	if err != nil {
		t.Fatal(err)
	}
	if k1[0] != k1b[0] || k1[1] != k1b[1] {
		t.Error("repeated DotKeys on the same W did not hit the cache")
	}
	if hits, misses := eng.DotKeyCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	st := auth.Stats()
	if st.IPKeys != 2 {
		t.Errorf("authority issued %d keys; the cached call must not re-derive", st.IPKeys)
	}
	k2, err := eng.DotKeys(w2)
	if err != nil {
		t.Fatal(err)
	}
	if k2[1] == k1[1] {
		t.Error("distinct matrices shared a cache entry")
	}
	// Cached keys must decrypt correctly.
	x := [][]int64{{5, 6}, {7, 8}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.SecureDot(enc, k1b, w1, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(z, plainDot(w1, x)) {
		t.Error("cache-served keys decrypted incorrectly")
	}
}

// The cache holds one matrix: a new one evicts it, and it keeps serving
// correct keys for whatever it currently holds.
func TestEngineDotKeyCacheEviction(t *testing.T) {
	auth, base := newFixture(t, 1_000_000)
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithSolver(base.Solver())
	w1 := [][]int64{{1, 2}}
	w2 := [][]int64{{3, 4}}
	for _, w := range [][][]int64{w1, w2, w1} { // second w1 call re-misses
		if _, err := eng.DotKeys(w); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := eng.DotKeyCacheStats(); hits != 0 || misses != 3 {
		t.Errorf("stats = %d hits / %d misses, want 0/3 after eviction churn", hits, misses)
	}
	// Mutating the caller's matrix after caching must not poison the cache.
	w3 := [][]int64{{9, 9}}
	keys3, err := eng.DotKeys(w3)
	if err != nil {
		t.Fatal(err)
	}
	w3[0][0] = 1
	keys3b, err := eng.DotKeys([][]int64{{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if keys3[0] != keys3b[0] {
		t.Error("cache lost the entry for the original matrix values")
	}
}

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

// DotKeysUncached must bypass the cache entirely: counters untouched,
// fresh derivation every call, correct keys.
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
	if hits, misses := eng.DotKeyCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("stats = %d/%d, want 0/0 — uncached path touched the cache", hits, misses)
	}
	if st := auth.Stats(); st.IPKeys != 2 {
		t.Errorf("authority issued %d keys, want 2 (one per uncached call)", st.IPKeys)
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
		t.Error("uncached keys decrypted incorrectly")
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
