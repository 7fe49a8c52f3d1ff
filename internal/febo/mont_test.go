package febo

// Property pins for the in-domain decryption path: DecryptPartsMont must
// agree with the big.Int decryptParts for every op, operand sign and group
// size — the two paths share nothing but the scheme, so agreement pins the
// Montgomery ladders (small-multiplier uint64 ladder, negative-multiplier
// denominator folding, windowed ÷ ladder) to the reference arithmetic.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// partsMontAgree checks num/den equality between the two paths for one
// (op, x, y) case. The Montgomery path may shuffle factors between
// numerator and denominator (the y < 0 multiplication fold), so the pin
// compares the quotient num·den⁻¹, which both paths must agree on.
func partsMontAgree(t *testing.T, params *group.Params, pk *PublicKey, sk *SecretKey, op Op, x, y int64, sc *DecryptScratch) {
	t.Helper()
	ct, err := Encrypt(pk, x, nil)
	if err != nil {
		t.Fatalf("Encrypt(%d): %v", x, err)
	}
	fk, err := KeyDerive(params, sk, ct.Cmt, op, y)
	if err != nil {
		t.Fatalf("KeyDerive(%s, %d): %v", op, y, err)
	}
	num, den, err := decryptParts(pk, fk, ct, op, y)
	if err != nil {
		t.Fatalf("decryptParts(%s, %d, %d): %v", op, x, y, err)
	}
	want := params.Div(num, den)

	mc := params.Mont()
	k := mc.Limbs()
	numM, denM := make([]uint64, k), make([]uint64, k)
	if err := DecryptPartsMont(pk, fk, ct, op, y, numM, denM, sc); err != nil {
		t.Fatalf("DecryptPartsMont(%s, %d, %d): %v", op, x, y, err)
	}
	if _, err := mc.BatchInvMont(denM, nil); err != nil {
		t.Fatalf("BatchInvMont: %v", err)
	}
	mc.MulMont(numM, numM, denM)
	if got := mc.FromMont(numM); got.Cmp(want) != 0 {
		t.Errorf("%s x=%d y=%d: mont quotient %v, big.Int quotient %v", op, x, y, got, want)
	}
}

func TestDecryptPartsMontMatchesBigInt(t *testing.T) {
	for _, bits := range []int{64, 256} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		pk, sk, err := Setup(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := &DecryptScratch{}
		rng := rand.New(rand.NewSource(int64(bits)))
		cases := []struct {
			op   Op
			x, y int64
		}{
			{OpAdd, 17, 25}, {OpAdd, -300, 1}, {OpAdd, 0, 0},
			{OpSub, 5, 900}, {OpSub, -1, -1},
			{OpMul, 12, 34}, {OpMul, 12, -34}, {OpMul, -12, 34},
			{OpMul, 7, 0}, {OpMul, 0, 9}, {OpMul, 3, math.MinInt64},
			{OpDiv, 84, 7}, {OpDiv, -84, 7}, {OpDiv, 84, -7}, {OpDiv, 85, 7},
		}
		for _, c := range cases {
			partsMontAgree(t, params, pk, sk, c.op, c.x, c.y, sc)
		}
		for i := 0; i < 12; i++ {
			op := Op(rng.Intn(4) + 1)
			x := rng.Int63n(2001) - 1000
			y := rng.Int63n(2001) - 1000
			if op == OpDiv && y == 0 {
				y = 3
			}
			partsMontAgree(t, params, pk, sk, op, x, y, sc)
		}
	}
}

func TestDecryptPartsMontValidation(t *testing.T) {
	params := group.TestParams()
	pk, sk, err := Setup(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(pk, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := KeyDerive(params, sk, ct.Cmt, OpAdd, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := params.Mont().Limbs()
	num, den := make([]uint64, k), make([]uint64, k)
	if err := DecryptPartsMont(nil, fk, ct, OpAdd, 1, num, den, nil); err == nil {
		t.Error("nil public key accepted")
	}
	if err := DecryptPartsMont(pk, nil, ct, OpAdd, 1, num, den, nil); err == nil {
		t.Error("nil function key accepted")
	}
	if err := DecryptPartsMont(pk, fk, nil, OpAdd, 1, num, den, nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
	if err := DecryptPartsMont(pk, fk, ct, Op(99), 1, num, den, nil); err == nil {
		t.Error("invalid op accepted")
	}
	if err := DecryptPartsMont(pk, fk, ct, OpDiv, 0, num, den, nil); err == nil {
		t.Error("zero divisor accepted")
	}
	// nil scratch must work (one-shot allocation path).
	if err := DecryptPartsMont(pk, fk, ct, OpMul, -3, num, den, nil); err != nil {
		t.Errorf("nil scratch: %v", err)
	}
}

// The decryption result of the in-domain path must also round-trip through
// the group Exp reference: g^{x Δ y} = num/den.
func TestDecryptPartsMontRecoversFunctionality(t *testing.T) {
	params := group.TestParams()
	pk, sk, err := Setup(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc := params.Mont()
	k := mc.Limbs()
	num, den := make([]uint64, k), make([]uint64, k)
	sc := &DecryptScratch{}
	for _, c := range []struct {
		op         Op
		x, y, want int64
	}{
		{OpAdd, 40, 2, 42}, {OpSub, 40, 2, 38}, {OpMul, -6, 7, -42}, {OpDiv, 84, -2, -42},
	} {
		ct, err := Encrypt(pk, c.x, nil)
		if err != nil {
			t.Fatal(err)
		}
		fk, err := KeyDerive(params, sk, ct.Cmt, c.op, c.y)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecryptPartsMont(pk, fk, ct, c.op, c.y, num, den, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := mc.BatchInvMont(den, nil); err != nil {
			t.Fatal(err)
		}
		mc.MulMont(num, num, den)
		want := params.PowG(big.NewInt(c.want))
		if got := mc.FromMont(num); got.Cmp(want) != 0 {
			t.Errorf("%s: recovered element is not g^%d", c.op, c.want)
		}
	}
}
