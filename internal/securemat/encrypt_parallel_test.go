package securemat_test

import (
	"math/rand"
	"sync"
	"testing"

	"cryptonn/internal/febo"
	"cryptonn/internal/securemat"
)

// TestEncryptParallelRoundTrip runs the full Algorithm 1 pipeline with the
// client-side encryption fanned out over every core: the parallel
// ciphertexts (columns, dual rows and elements) must decrypt to exactly the
// same plaintext results as the sequential path produces. `make race` runs
// it at GOMAXPROCS 1, 2 and 4.
func TestEncryptParallelRoundTrip(t *testing.T) {
	const (
		inner = 6
		cols  = 7
		wRows = 3
	)
	_, eng := newFixture(t, int64(inner)*100+1)
	rng := rand.New(rand.NewSource(21))
	x := randMatrix(rng, inner, cols, -9, 9)
	w := randMatrix(rng, wRows, inner, -9, 9)
	d := randMatrix(rng, 2, cols, -9, 9)
	y := randMatrix(rng, inner, cols, -9, 9)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true})
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatalf("SecureDot: %v", err)
	}
	if !matEqual(z, plainDot(w, x)) {
		t.Fatal("parallel-encrypted dot product mismatch")
	}
	rowKeys, err := eng.DotKeys(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := eng.SecureDotRows(enc, rowKeys, d, securemat.ComputeOptions{})
	if err != nil {
		t.Fatalf("SecureDotRows: %v", err)
	}
	xt := make([][]int64, cols)
	for j := range xt {
		xt[j] = make([]int64, inner)
		for i := 0; i < inner; i++ {
			xt[j][i] = x[i][j]
		}
	}
	if !matEqual(g, plainDot(d, xt)) {
		t.Fatal("parallel-encrypted row dot product mismatch")
	}
	ewKeys, err := eng.ElementwiseKeys(enc, febo.OpAdd, y)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.SecureElementwise(enc, ewKeys, febo.OpAdd, y, securemat.ComputeOptions{})
	if err != nil {
		t.Fatalf("SecureElementwise: %v", err)
	}
	for i := 0; i < inner; i++ {
		for j := 0; j < cols; j++ {
			if s[i][j] != x[i][j]+y[i][j] {
				t.Fatalf("elementwise (%d,%d) = %d, want %d", i, j, s[i][j], x[i][j]+y[i][j])
			}
		}
	}
}

// TestEncryptParallelHammer drives many concurrent parallel Encrypts over
// one key service — the shared-fixed-base-table contract (immutable after
// Precompute, sync.Once builds) under the race detector via `make race`.
func TestEncryptParallelHammer(t *testing.T) {
	_, eng := newFixture(t, 101)
	rng := rand.New(rand.NewSource(22))
	x := randMatrix(rng, 5, 8, -9, 9)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
