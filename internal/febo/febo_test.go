package febo

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

func setupTest(t testing.TB, bound int64) (*PublicKey, *SecretKey, *dlog.Solver) {
	t.Helper()
	params := group.TestParams()
	pk, sk, err := Setup(params, nil)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	return pk, sk, solver
}

func roundTrip(t *testing.T, pk *PublicKey, sk *SecretKey, solver *dlog.Solver, op Op, x, y int64) (int64, error) {
	t.Helper()
	ct, err := Encrypt(pk, x, nil)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	fk, err := KeyDerive(pk.Params, sk, ct.Cmt, op, y)
	if err != nil {
		return 0, err
	}
	return Decrypt(pk, fk, ct, op, y, solver)
}

func TestAllOpsTable(t *testing.T) {
	pk, sk, solver := setupTest(t, 100_000)
	tests := []struct {
		name string
		op   Op
		x, y int64
		want int64
	}{
		{"add", OpAdd, 17, 25, 42},
		{"add negative y", OpAdd, 10, -3, 7},
		{"add negative x", OpAdd, -10, 3, -7},
		{"add both negative", OpAdd, -10, -3, -13},
		{"sub", OpSub, 50, 8, 42},
		{"sub negative result", OpSub, 5, 9, -4},
		{"sub negative operands", OpSub, -5, -9, 4},
		{"mul", OpMul, 6, 7, 42},
		{"mul negative y", OpMul, 6, -7, -42},
		{"mul negative x", OpMul, -6, 7, -42},
		{"mul both negative", OpMul, -6, -7, 42},
		{"mul by zero y", OpMul, 123, 0, 0},
		{"mul zero x", OpMul, 0, 55, 0},
		{"div exact", OpDiv, 84, 2, 42},
		{"div negative", OpDiv, -84, 2, -42},
		{"div by negative", OpDiv, 84, -2, -42},
		{"div by one", OpDiv, 42, 1, 42},
		{"add zero", OpAdd, 0, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := roundTrip(t, pk, sk, solver, tt.op, tt.x, tt.y)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if got != tt.want {
				t.Errorf("%d %s %d = %d, want %d", tt.x, tt.op, tt.y, got, tt.want)
			}
		})
	}
}

func TestDivByZeroKeyFails(t *testing.T) {
	pk, sk, _ := setupTest(t, 100)
	ct, _ := Encrypt(pk, 10, nil)
	if _, err := KeyDerive(pk.Params, sk, ct.Cmt, OpDiv, 0); err == nil {
		t.Error("division key for y=0 should fail")
	}
}

// TestDivisionWithoutInverseRefused: ÷ by a non-zero multiple of Q has no
// inverse mod Q, and every entry point refuses it through the one table;
// Q+1 ≡ 1 divides like 1.
func TestDivisionWithoutInverseRefused(t *testing.T) {
	pk, sk, solver := setupTest(t, 100)
	params := pk.Params
	q := params.Q.Int64()
	ct, err := Encrypt(pk, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := KeyDerive(params, sk, ct.Cmt, OpAdd, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := params.Mont().Limbs()
	num, den := make([]uint64, k), make([]uint64, k)
	for _, y := range []int64{0, q, -q} {
		if _, err := KeyDerive(params, sk, ct.Cmt, OpDiv, y); err == nil {
			t.Errorf("KeyDerive issued a ÷ %d key", y)
		}
		if _, err := CompleteKey(params, ct.Cmt, OpDiv, y); err == nil {
			t.Errorf("CompleteKey issued a ÷ %d key", y)
		}
		if err := DecryptPartsMont(pk, fk, ct, OpDiv, y, num, den, nil); err == nil {
			t.Errorf("DecryptPartsMont decrypted ÷ %d", y)
		}
		if err := CheckOperands(params, OpDiv, []int64{1, y}); err == nil {
			t.Errorf("CheckOperands accepted ÷ %d", y)
		}
	}
	if got, err := roundTrip(t, pk, sk, solver, OpDiv, 42, q+1); err != nil || got != 42 {
		t.Errorf("42 / (Q+1) = %d, %v; want 42", got, err)
	}
	if err := CheckOperands(params, Op(9), []int64{1}); !errors.Is(err, ErrInvalidOp) {
		t.Errorf("CheckOperands(op 9) = %v, want ErrInvalidOp", err)
	}
}

func TestInexactDivisionIsUnrecoverable(t *testing.T) {
	// 7/2 = 7·2⁻¹ mod q, a huge ring element: solver must report not-found.
	pk, sk, solver := setupTest(t, 1000)
	_, err := roundTrip(t, pk, sk, solver, OpDiv, 7, 2)
	if !errors.Is(err, dlog.ErrNotFound) {
		t.Errorf("expected dlog.ErrNotFound for inexact division, got %v", err)
	}
}

func TestRandomizedAllOps(t *testing.T) {
	pk, sk, solver := setupTest(t, 1_100_000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		x := rng.Int63n(2001) - 1000
		y := rng.Int63n(2001) - 1000
		for _, op := range []Op{OpAdd, OpSub, OpMul} {
			want, err := op.Apply(x, y)
			if err != nil {
				t.Fatal(err)
			}
			got, err := roundTrip(t, pk, sk, solver, op, x, y)
			if err != nil {
				t.Fatalf("%d %s %d: %v", x, op, y, err)
			}
			if got != want {
				t.Fatalf("%d %s %d = %d, want %d", x, op, y, got, want)
			}
		}
	}
}

// Property: FEBO decryption equals plaintext arithmetic for add/sub/mul.
func TestQuickFunctionality(t *testing.T) {
	pk, sk, solver := setupTest(t, 1<<22)
	f := func(xr, yr int16, opSel uint8) bool {
		x, y := int64(xr%1000), int64(yr%1000)
		op := []Op{OpAdd, OpSub, OpMul}[int(opSel)%3]
		want, err := op.Apply(x, y)
		if err != nil {
			return true // skip (cannot happen for these ops)
		}
		ct, err := Encrypt(pk, x, nil)
		if err != nil {
			return false
		}
		fk, err := KeyDerive(pk.Params, sk, ct.Cmt, op, y)
		if err != nil {
			return false
		}
		got, err := Decrypt(pk, fk, ct, op, y, solver)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKeyIsCiphertextBound(t *testing.T) {
	// A key derived for ciphertext A must not decrypt ciphertext B:
	// this is the per-ciphertext commitment binding of §III-B.
	pk, sk, solver := setupTest(t, 10_000)
	ctA, _ := Encrypt(pk, 11, nil)
	ctB, _ := Encrypt(pk, 11, nil) // same plaintext, fresh nonce
	fkA, err := KeyDerive(pk.Params, sk, ctA.Cmt, OpAdd, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(pk, fkA, ctB, OpAdd, 5, solver)
	if err == nil && got == 16 {
		t.Error("key for ciphertext A decrypted ciphertext B")
	}
}

func TestCiphertextRandomized(t *testing.T) {
	pk, _, _ := setupTest(t, 10)
	ct1, _ := Encrypt(pk, 1, nil)
	ct2, _ := Encrypt(pk, 1, nil)
	if ct1.Cmt.Cmp(ct2.Cmt) == 0 || ct1.Ct.Cmp(ct2.Ct) == 0 {
		t.Error("two encryptions of the same value are identical")
	}
}

func TestOpHelpers(t *testing.T) {
	if OpAdd.String() != "+" || OpSub.String() != "-" || OpMul.String() != "*" || OpDiv.String() != "/" {
		t.Error("Op.String mismatch")
	}
	if Op(0).Valid() || Op(5).Valid() {
		t.Error("invalid ops reported valid")
	}
	if !OpAdd.Valid() || !OpDiv.Valid() {
		t.Error("valid ops reported invalid")
	}
	if _, err := Op(99).Apply(1, 1); err == nil {
		t.Error("Apply on invalid op should fail")
	}
	if _, err := OpDiv.Apply(1, 0); err == nil {
		t.Error("Apply div-by-zero should fail")
	}
	if _, err := OpDiv.Apply(7, 2); err == nil {
		t.Error("Apply inexact division should fail")
	}
}

func TestMalformedInputs(t *testing.T) {
	pk, sk, solver := setupTest(t, 100)
	ct, _ := Encrypt(pk, 1, nil)
	fk, _ := KeyDerive(pk.Params, sk, ct.Cmt, OpAdd, 1)

	if _, err := Encrypt(nil, 1, nil); err == nil {
		t.Error("nil pk should fail")
	}
	if _, err := KeyDerive(pk.Params, nil, ct.Cmt, OpAdd, 1); err == nil {
		t.Error("nil sk should fail")
	}
	if _, err := KeyDerive(pk.Params, sk, big.NewInt(0), OpAdd, 1); err == nil {
		t.Error("non-element commitment should fail")
	}
	if _, err := KeyDerive(pk.Params, sk, ct.Cmt, Op(9), 1); !errors.Is(err, ErrInvalidOp) {
		t.Error("invalid op should fail KeyDerive")
	}
	if _, err := Decrypt(pk, nil, ct, OpAdd, 1, solver); err == nil {
		t.Error("nil fk should fail")
	}
	if _, err := Decrypt(pk, fk, nil, OpAdd, 1, solver); err == nil {
		t.Error("nil ct should fail")
	}
	if _, err := Decrypt(pk, fk, ct, Op(9), 1, solver); !errors.Is(err, ErrInvalidOp) {
		t.Error("invalid op should fail Decrypt")
	}
	if err := (&PublicKey{}).Validate(); err == nil {
		t.Error("empty pk accepted")
	}
	if !pk.Params.IsElement(ct.Cmt) || !pk.Params.IsElement(ct.Ct) {
		t.Error("ciphertext component is not a group element")
	}
	if err := pk.Validate(); err != nil {
		t.Errorf("valid pk rejected: %v", err)
	}
}

func TestSetupRejectsNilParams(t *testing.T) {
	if _, _, err := Setup(nil, nil); err == nil {
		t.Error("nil params should fail")
	}
}

// TestKeyDeriveExtremeOperands pins the OpAdd/OpSub key formula at the
// int64 boundaries, where a naive -y negation overflows (math.MinInt64).
func TestKeyDeriveExtremeOperands(t *testing.T) {
	params := group.TestParams()
	pk, sk, _ := setupTest(t, 100)
	ct, err := Encrypt(pk, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
		yb := big.NewInt(y)
		cmtS := params.Exp(ct.Cmt, sk.S)
		wantAdd := params.Mul(cmtS, params.PowG(new(big.Int).Neg(yb)))
		fk, err := KeyDerive(params, sk, ct.Cmt, OpAdd, y)
		if err != nil {
			t.Fatalf("OpAdd y=%d: %v", y, err)
		}
		if fk.K.Cmp(wantAdd) != 0 {
			t.Errorf("OpAdd y=%d: key mismatch", y)
		}
		wantSub := params.Mul(cmtS, params.PowG(yb))
		fk, err = KeyDerive(params, sk, ct.Cmt, OpSub, y)
		if err != nil {
			t.Fatalf("OpSub y=%d: %v", y, err)
		}
		if fk.K.Cmp(wantSub) != 0 {
			t.Errorf("OpSub y=%d: key mismatch", y)
		}
	}
}

// TestCompleteKeyMatchesKeyDerive pins the public half of the key transform
// (what a threshold client applies to the combined cmt^s) to the single
// authority's KeyDerive, and both to the table's key cmt^{s·m}·g^a raised
// in one math/big exponentiation, for every op at the int64 boundaries — a
// -y negation overflows at math.MinInt64 — and at the zero divisor.
func TestCompleteKeyMatchesKeyDerive(t *testing.T) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		pk, sk, err := Setup(params, rand.New(rand.NewSource(int64(bits))))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Encrypt(pk, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		cmtS := params.Exp(ct.Cmt, sk.S)
		for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv} {
			for _, y := range []int64{math.MinInt64, -1, 1, math.MaxInt64} {
				want, err := KeyDerive(params, sk, ct.Cmt, op, y)
				if err != nil {
					t.Fatalf("bits=%d KeyDerive(%s, %d): %v", bits, op, y, err)
				}
				got, err := CompleteKey(params, cmtS, op, y)
				if err != nil {
					t.Fatalf("bits=%d CompleteKey(%s, %d): %v", bits, op, y, err)
				}
				if got.K.Cmp(want.K) != 0 {
					t.Errorf("bits=%d %s y=%d: CompleteKey(cmt^s) differs from KeyDerive", bits, op, y)
				}
				m, a := big.NewInt(1), big.NewInt(y)
				switch op {
				case OpAdd:
					a.Neg(a)
				case OpMul:
					m, a = a, new(big.Int)
				case OpDiv:
					m, a = new(big.Int).ModInverse(new(big.Int).Mod(a, params.Q), params.Q), new(big.Int)
				}
				e := new(big.Int).Mod(new(big.Int).Mul(sk.S, m), params.Q)
				if table := params.Mul(params.Exp(ct.Cmt, e), params.PowG(a)); want.K.Cmp(table) != 0 {
					t.Errorf("bits=%d %s y=%d: KeyDerive differs from cmt^{s·m}·g^a", bits, op, y)
				}
			}
		}
		if _, err := CompleteKey(params, cmtS, OpDiv, 0); err == nil {
			t.Errorf("bits=%d: CompleteKey issued a division key for y=0", bits)
		}
		if _, err := KeyDerive(params, sk, ct.Cmt, OpDiv, 0); err == nil {
			t.Errorf("bits=%d: KeyDerive issued a division key for y=0", bits)
		}
		if _, err := CompleteKey(params, cmtS, Op(99), 1); !errors.Is(err, ErrInvalidOp) {
			t.Errorf("bits=%d: CompleteKey(op 99) = %v, want ErrInvalidOp", bits, err)
		}
	}
}
