package securemat_test

import (
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// Tamper tests: a ciphertext corrupted in transit must never decrypt to
// the original plaintext result silently. With the bounded discrete-log
// recovery, corruption almost surely lands outside the solver window and
// surfaces as an error; the assertions accept either an error or a value
// different from the true result (a silently *correct* result would mean
// the tampering had no effect, which is the one impossible outcome).

// TestTamperedDotCiphertextDetected corrupts one column of an encrypted
// matrix — a carried coordinate multiplied by g, or ct_0 replaced by 0, 1,
// P−1 or multiplied by g — under W of 1 row and of 32, so its denominators
// meet one key and a set as wide as serve_dense's. Every case must come back
// as an error or as a product other than the true one, at one worker and at
// two, and never panic.
func TestTamperedDotCiphertextDetected(t *testing.T) {
	auth, eng := newFixture(t, 1000)
	params := auth.Params()
	pMinus1 := new(big.Int).Sub(params.P, big.NewInt(1))
	tampers := map[string]func(ct *feip.Ciphertext){
		"coordinate·g": func(ct *feip.Ciphertext) { ct.Ct[0] = params.Mul(ct.Ct[0], params.G) },
		"ct0=0":        func(ct *feip.Ciphertext) { ct.Ct0 = big.NewInt(0) },
		"ct0=1":        func(ct *feip.Ciphertext) { ct.Ct0 = big.NewInt(1) },
		"ct0=P-1":      func(ct *feip.Ciphertext) { ct.Ct0 = pMinus1 },
		"ct0·g":        func(ct *feip.Ciphertext) { ct.Ct0 = params.Mul(ct.Ct0, params.G) },
	}
	rng := rand.New(rand.NewSource(27))
	x := randMatrix(rng, 4, 3, -9, 9)
	x[0][0] = 3 // the tampered coordinate carries a non-zero value
	for _, rows := range []int{1, 32} {
		w := randMatrix(rng, rows, 4, -9, 9)
		w[0][0] = 4 // and row 0 weights it, so the coordinate tamper shows
		want := plainDot(w, x)
		keys, err := eng.DotKeys(w)
		if err != nil {
			t.Fatal(err)
		}
		for name, tamper := range tampers {
			for _, par := range []int{1, 2} {
				enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
				if err != nil {
					t.Fatal(err)
				}
				opts := securemat.ComputeOptions{Parallelism: par}
				if got, err := eng.SecureDot(enc, keys, w, opts); err != nil || !matEqual(got, want) {
					t.Fatalf("rows=%d par=%d: untampered product = %v, %v; want %v", rows, par, got, err, want)
				}
				tamper(enc.ColCts[0])
				if got, err := eng.SecureDot(enc, keys, w, opts); err == nil && matEqual(got, want) {
					t.Errorf("rows=%d par=%d, %s: tampered ciphertext decrypted to the original product", rows, par, name)
				}
			}
		}
	}
}

func TestTamperedCommitmentBreaksElementwiseKey(t *testing.T) {
	_, eng := newFixture(t, 1000)
	x := [][]int64{{7}}
	y := [][]int64{{5}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.ElementwiseKeys(enc, febo.OpAdd, y)
	if err != nil {
		t.Fatal(err)
	}

	// Swap the ciphertext for a fresh encryption of a different value:
	// the key is bound to the *old* commitment, so decryption must not
	// yield newValue + y.
	enc2, err := eng.Encrypt([][]int64{{20}}, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	enc.Elems[0][0] = enc2.Elems[0][0]
	got, err := eng.SecureElementwise(enc, keys, febo.OpAdd, y,
		securemat.ComputeOptions{Parallelism: 1})
	if err == nil && got[0][0] == 25 {
		t.Error("key bound to a different commitment still decrypted the swapped ciphertext")
	}
}

func TestNonElementCiphertextRejected(t *testing.T) {
	_, eng := newFixture(t, 1000)
	x := [][]int64{{3, 1}}
	w := [][]int64{{2}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	// 0 is never a member of the multiplicative subgroup.
	enc.ColCts[0].Ct[0] = big.NewInt(0)
	if _, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 1}); err == nil {
		t.Error("zero 'group element' accepted in decryption")
	}
}
