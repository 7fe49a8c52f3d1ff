package feip

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

func setupTest(t testing.TB, eta int, bound int64) (*MasterPublicKey, *MasterSecretKey, *dlog.Solver) {
	t.Helper()
	params := group.TestParams()
	mpk, msk, err := Setup(params, eta, nil)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	return mpk, msk, solver
}

func TestRoundTripSimple(t *testing.T) {
	mpk, msk, solver := setupTest(t, 4, 10_000)
	x := []int64{1, 2, 3, 4}
	y := []int64{5, 6, 7, 8}
	ct, err := Encrypt(mpk, x, nil)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	fk, err := KeyDerive(mpk.Params, msk, y)
	if err != nil {
		t.Fatalf("KeyDerive: %v", err)
	}
	got, err := Decrypt(mpk, ct, fk, y, solver)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if want := int64(5 + 12 + 21 + 32); got != want {
		t.Errorf("Decrypt = %d, want %d", got, want)
	}
}

func TestRoundTripSignedValues(t *testing.T) {
	mpk, msk, solver := setupTest(t, 3, 10_000)
	tests := []struct {
		name string
		x, y []int64
	}{
		{"negative x", []int64{-1, -2, -3}, []int64{1, 2, 3}},
		{"negative y", []int64{1, 2, 3}, []int64{-4, -5, -6}},
		{"mixed", []int64{-7, 8, -9}, []int64{10, -11, 12}},
		{"zeros", []int64{0, 0, 0}, []int64{1, 2, 3}},
		{"zero weights", []int64{5, 6, 7}, []int64{0, 0, 0}},
		{"negative result", []int64{10, 0, 0}, []int64{-50, 1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := dot(tt.x, tt.y)
			ct, err := Encrypt(mpk, tt.x, nil)
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			fk, err := KeyDerive(mpk.Params, msk, tt.y)
			if err != nil {
				t.Fatalf("KeyDerive: %v", err)
			}
			got, err := Decrypt(mpk, ct, fk, tt.y, solver)
			if err != nil {
				t.Fatalf("Decrypt: %v", err)
			}
			if got != want {
				t.Errorf("Decrypt = %d, want %d", got, want)
			}
		})
	}
}

func TestRandomizedRoundTrips(t *testing.T) {
	const eta = 10
	mpk, msk, solver := setupTest(t, eta, 1_000_000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		x := make([]int64, eta)
		y := make([]int64, eta)
		for j := range x {
			x[j] = rng.Int63n(201) - 100
			y[j] = rng.Int63n(201) - 100
		}
		want := dot(x, y)
		ct, err := Encrypt(mpk, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		fk, err := KeyDerive(mpk.Params, msk, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decrypt(mpk, ct, fk, y, solver)
		if err != nil {
			t.Fatalf("Decrypt (iter %d): %v", i, err)
		}
		if got != want {
			t.Fatalf("iter %d: got %d want %d", i, got, want)
		}
	}
}

// Property: decryption computes exactly ⟨x, y⟩ for arbitrary small signed
// vectors.
func TestQuickInnerProductFunctionality(t *testing.T) {
	mpk, msk, solver := setupTest(t, 5, 1<<22)
	f := func(xr, yr [5]int16) bool {
		x := make([]int64, 5)
		y := make([]int64, 5)
		for i := 0; i < 5; i++ {
			x[i] = int64(xr[i] % 100)
			y[i] = int64(yr[i] % 100)
		}
		want := dot(x, y)
		ct, err := Encrypt(mpk, x, nil)
		if err != nil {
			return false
		}
		fk, err := KeyDerive(mpk.Params, msk, y)
		if err != nil {
			return false
		}
		got, err := Decrypt(mpk, ct, fk, y, solver)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextRandomized(t *testing.T) {
	// Same plaintext twice must give different ciphertexts (fresh nonce):
	// this is the property the paper leans on for label privacy ("the
	// encrypted result is uniformly distributed ... for each same label").
	mpk, _, _ := setupTest(t, 2, 100)
	x := []int64{1, 0}
	ct1, err := Encrypt(mpk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := Encrypt(mpk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ct1.Ct0.Cmp(ct2.Ct0) == 0 {
		t.Error("two encryptions share a nonce")
	}
	if ct1.Ct[0].Cmp(ct2.Ct[0]) == 0 {
		t.Error("two encryptions of the same value are identical")
	}
}

func TestDimensionMismatches(t *testing.T) {
	mpk, msk, solver := setupTest(t, 3, 100)
	if _, err := Encrypt(mpk, []int64{1, 2}, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("Encrypt short vector: err = %v", err)
	}
	if _, err := KeyDerive(mpk.Params, msk, []int64{1, 2, 3, 4}); !errors.Is(err, ErrDimension) {
		t.Errorf("KeyDerive long vector: err = %v", err)
	}
	ct, _ := Encrypt(mpk, []int64{1, 2, 3}, nil)
	fk, _ := KeyDerive(mpk.Params, msk, []int64{1, 1, 1})
	if _, err := Decrypt(mpk, ct, fk, []int64{1, 1}, solver); !errors.Is(err, ErrDimension) {
		t.Errorf("Decrypt mismatched y: err = %v", err)
	}
}

func TestSetupRejectsBadInputs(t *testing.T) {
	if _, _, err := Setup(nil, 3, nil); err == nil {
		t.Error("nil params should fail")
	}
	if _, _, err := Setup(group.TestParams(), 0, nil); err == nil {
		t.Error("zero dimension should fail")
	}
}

func TestWrongKeyDoesNotDecrypt(t *testing.T) {
	mpk, msk, solver := setupTest(t, 2, 1000)
	x := []int64{3, 4}
	y := []int64{5, 6}
	yWrong := []int64{7, 8}
	ct, _ := Encrypt(mpk, x, nil)
	fkWrong, _ := KeyDerive(mpk.Params, msk, yWrong)
	// Decrypting with key for y' but claiming y gives neither ⟨x,y⟩ nor x.
	got, err := Decrypt(mpk, ct, fkWrong, y, solver)
	want := dot(x, y)
	if err == nil && got == want {
		t.Error("wrong key decrypted to the correct inner product")
	}
}

func TestValidate(t *testing.T) {
	mpk, _, _ := setupTest(t, 2, 100)
	if err := mpk.Validate(); err != nil {
		t.Errorf("valid mpk rejected: %v", err)
	}
	ct, _ := Encrypt(mpk, []int64{1, 2}, nil)
	for i, c := range append([]*big.Int{ct.Ct0}, ct.Ct...) {
		if !mpk.Params.IsElement(c) {
			t.Errorf("ciphertext component %d is not a group element", i)
		}
	}
	if err := (&MasterPublicKey{}).Validate(); err == nil {
		t.Error("empty mpk accepted")
	}
}

func TestResultOutsideSolverBound(t *testing.T) {
	mpk, msk, solver := setupTest(t, 1, 10)
	ct, _ := Encrypt(mpk, []int64{100}, nil)
	fk, _ := KeyDerive(mpk.Params, msk, []int64{100})
	if _, err := Decrypt(mpk, ct, fk, []int64{100}, solver); !errors.Is(err, dlog.ErrNotFound) {
		t.Errorf("expected dlog.ErrNotFound, got %v", err)
	}
}

// dot is the plaintext functionality ⟨x, y⟩ the decryptions are checked
// against.
func dot(x, y []int64) int64 {
	var acc int64
	for i := range x {
		acc += x[i] * y[i]
	}
	return acc
}
