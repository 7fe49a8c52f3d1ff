package group

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// TestRecodeSignedReconstructs pins the signed-window recoding: for every
// width BenchmarkEphemeralWindow sweeps and three group sizes,
// Σ d_i·2^{w·i} must reconstruct the exponent reduced into [0, Q), with
// every digit inside (−2^{w−1}, 2^{w−1}] — the invariant that lets a window
// row store only 2^{w−1} entries.
func TestRecodeSignedReconstructs(t *testing.T) {
	for _, bits := range conformanceBits {
		params, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		exps := conformanceExponents(params, rand.New(rand.NewSource(int64(bits))))
		var buf []int16
		for _, w := range []int{3, 4, 5, 6} {
			half := int16(1) << (w - 1)
			for _, e := range exps {
				buf = params.recodeSigned(e, w, buf)
				acc := new(big.Int)
				term := new(big.Int)
				for i, d := range buf {
					if d > half || d <= -half {
						t.Fatalf("bits=%d w=%d: digit %d of %v out of range", bits, w, d, e)
					}
					term.SetInt64(int64(d))
					term.Lsh(term, uint(w*i))
					acc.Add(acc, term)
				}
				want := new(big.Int).Mod(e, params.Q)
				if acc.Cmp(want) != 0 {
					t.Fatalf("bits=%d w=%d: recode(%v) reconstructs %v, want %v", bits, w, e, acc, want)
				}
			}
		}
	}
}

// TestPowGResultIsFresh: mutating a returned result must not corrupt the
// dense slab or the comb.
func TestPowGResultIsFresh(t *testing.T) {
	params := TestParams()
	for _, x := range []int64{3, 1 << 20} {
		r := params.PowGInt64(x)
		want := new(big.Int).Set(r)
		r.SetInt64(999)
		if got := params.PowGInt64(x); got.Cmp(want) != 0 {
			t.Fatalf("PowGInt64(%d) corrupted by caller mutation: got %v want %v", x, got, want)
		}
	}
}

// TestPowGConcurrent hammers the lazily built generator precomputation
// from many goroutines; run with -race to prove the sync.Once construction
// and the immutable reads are safe (the thread-safety contract the FE
// layers rely on when sharing one mpk across workers).
func TestPowGConcurrent(t *testing.T) {
	// Fresh Params so the build itself races with lookups.
	fresh := TestParams().Clone()
	exp := big.NewInt(123456789)
	want := fresh.Exp(fresh.G, exp)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if got := fresh.PowG(exp); got.Cmp(want) != 0 {
					errs <- fmt.Errorf("PowG mismatch")
					return
				}
				if got := fresh.PowGInt64(-7); got.Cmp(fresh.Exp(fresh.G, big.NewInt(-7))) != 0 {
					errs <- fmt.Errorf("PowGInt64 mismatch")
					return
				}
				e := new(big.Int).Rand(rng, fresh.Q)
				if got, wantE := fresh.PowG(e), fresh.Exp(fresh.G, e); got.Cmp(wantE) != 0 {
					errs <- fmt.Errorf("PowG(random) mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
