package group

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmbeddedAllValid(t *testing.T) {
	for _, bits := range EmbeddedSizes() {
		bits := bits
		t.Run(big.NewInt(int64(bits)).String()+"bit", func(t *testing.T) {
			p, err := Embedded(bits)
			if err != nil {
				t.Fatalf("Embedded(%d): %v", bits, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := p.P.BitLen(); got != bits {
				t.Errorf("modulus bit length = %d, want %d", got, bits)
			}
			if got := p.Bits(); got != bits-1 {
				t.Errorf("order bit length = %d, want %d", got, bits-1)
			}
		})
	}
}

func TestEmbeddedUnknownSize(t *testing.T) {
	if _, err := Embedded(97); err == nil {
		t.Fatal("Embedded(97) should fail")
	}
}

func TestTestParamsAndPaperParams(t *testing.T) {
	if TestParams().P.BitLen() != TestBits {
		t.Error("TestParams has wrong size")
	}
	if PaperParams().P.BitLen() != PaperBits {
		t.Error("PaperParams has wrong size")
	}
}

func TestGenerateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("safe-prime generation is slow")
	}
	p, err := Generate(64, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateRejectsTinyModulus(t *testing.T) {
	if _, err := Generate(16, nil); err == nil {
		t.Fatal("Generate(16) should fail")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := TestParams()
	tests := []struct {
		name string
		p    *Params
	}{
		{"nil field", &Params{P: good.P, Q: good.Q}},
		{"composite P", &Params{P: big.NewInt(15), Q: big.NewInt(7), G: big.NewInt(2)}},
		{"P not 2Q+1", &Params{P: good.P, Q: new(big.Int).Add(good.Q, one), G: good.G}},
		{"generator 1", &Params{P: good.P, Q: good.Q, G: big.NewInt(1)}},
		{"generator outside subgroup", &Params{P: good.P, Q: good.Q, G: new(big.Int).Sub(good.P, one)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestExpNegativeExponent(t *testing.T) {
	p := TestParams()
	x := big.NewInt(42)
	ghx := p.PowG(x)
	ghxNeg := p.PowG(new(big.Int).Neg(x))
	if got := p.Mul(ghx, ghxNeg); got.Cmp(one) != 0 {
		t.Errorf("g^42 * g^-42 = %v, want 1", got)
	}
}

func TestExpLaws(t *testing.T) {
	p := TestParams()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := big.NewInt(rng.Int63n(1 << 30))
		b := big.NewInt(rng.Int63n(1 << 30))
		// g^a * g^b == g^{a+b}
		lhs := p.Mul(p.PowG(a), p.PowG(b))
		rhs := p.PowG(new(big.Int).Add(a, b))
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("homomorphism broken for a=%v b=%v", a, b)
		}
		// (g^a)^b == g^{ab}
		lhs = p.Exp(p.PowG(a), b)
		rhs = p.PowG(new(big.Int).Mul(a, b))
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("power law broken for a=%v b=%v", a, b)
		}
	}
}

func TestDivAndInv(t *testing.T) {
	p := TestParams()
	a := p.PowGInt64(123)
	b := p.PowGInt64(100)
	if got, want := p.Div(a, b), p.PowGInt64(23); got.Cmp(want) != 0 {
		t.Errorf("Div: got %v want %v", got, want)
	}
	if got := p.Mul(a, p.Inv(a)); got.Cmp(one) != 0 {
		t.Errorf("Inv: a * a^-1 = %v, want 1", got)
	}
}

func TestIsElement(t *testing.T) {
	p := TestParams()
	if !p.IsElement(p.G) {
		t.Error("generator should be an element")
	}
	if !p.IsElement(p.PowGInt64(99)) {
		t.Error("g^99 should be an element")
	}
	if p.IsElement(nil) {
		t.Error("nil should not be an element")
	}
	if p.IsElement(big.NewInt(0)) {
		t.Error("0 should not be an element")
	}
	if p.IsElement(p.P) {
		t.Error("P should not be an element")
	}
	// A quadratic non-residue is not in the order-Q subgroup.
	nonRes := new(big.Int).Sub(p.P, one) // -1 has order 2
	if p.IsElement(nonRes) {
		t.Error("-1 should not be in the order-Q subgroup")
	}
}

// TestIsElementNeedsSafePrime pins IsElement's precondition: membership is
// a Legendre symbol only when P = 2Q+1, so Params that break it — an
// unvalidated literal, since every constructor and decoder runs Validate —
// answer false even for members, and an even P answers without panicking.
func TestIsElementNeedsSafePrime(t *testing.T) {
	p := PaperParams()
	members := []*big.Int{p.G, p.PowGInt64(99), big.NewInt(4)}
	for _, a := range members {
		if !p.IsElement(a) {
			t.Fatalf("IsElement(%v) = false on the validated group", a)
		}
	}
	for name, bad := range map[string]*Params{
		"Q-1":    {P: p.P, Q: new(big.Int).Sub(p.Q, one), G: p.G},
		"Q+2":    {P: p.P, Q: new(big.Int).Add(p.Q, two), G: p.G},
		"nil Q":  {P: p.P, G: p.G},
		"even P": {P: new(big.Int).Add(p.P, one), Q: p.Q, G: p.G},
	} {
		if bad.Validate() == nil {
			t.Fatalf("%s: Validate accepted P != 2Q+1", name)
		}
		for _, a := range members {
			if bad.IsElement(a) {
				t.Errorf("%s: IsElement(%v) = true with P != 2Q+1", name, a)
			}
		}
	}
}

// FuzzIsElement pins the Legendre-symbol membership test to its definition
// in math/big (a^Q mod P == 1 inside (0, P)) for any big-endian input at
// each embedded width; sel picks the width.
func FuzzIsElement(f *testing.F) {
	widths := []*Params{}
	for _, bits := range []int{64, 256, 512} {
		p, err := Embedded(bits)
		if err != nil {
			f.Fatal(err)
		}
		widths = append(widths, p)
	}
	pow2 := func(e uint) *big.Int { return new(big.Int).Lsh(one, e) }
	for sel, p := range widths {
		for _, a := range []*big.Int{
			new(big.Int), one, two, new(big.Int).Sub(p.P, one), p.P, new(big.Int).Add(p.P, one),
			p.G, new(big.Int).Sub(p.P, p.G), pow2(64), new(big.Int).Add(pow2(128), one),
			new(big.Int).Sub(pow2(192), one), big.NewInt(9), new(big.Int).Sub(pow2(256), one),
		} {
			f.Add(uint8(sel), a.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		p := widths[int(sel)%len(widths)]
		if len(raw) > 2*len(p.P.Bytes()) {
			raw = raw[:2*len(p.P.Bytes())]
		}
		a := new(big.Int).SetBytes(raw)
		if got, want := p.IsElement(a), isElementReference(p, a); got != want {
			t.Fatalf("%d-bit group: IsElement(%#x) = %v, want %v", p.Bits(), a, got, want)
		}
	})
}

func TestRandScalarRange(t *testing.T) {
	p := TestParams()
	for i := 0; i < 100; i++ {
		s, err := p.RandScalar(nil)
		if err != nil {
			t.Fatalf("RandScalar: %v", err)
		}
		if s.Sign() < 0 || s.Cmp(p.Q) >= 0 {
			t.Fatalf("scalar %v out of [0, Q)", s)
		}
	}
}

func TestReduceScalar(t *testing.T) {
	p := TestParams()
	neg := big.NewInt(-5)
	r := p.ReduceScalar(neg)
	if r.Sign() < 0 || r.Cmp(p.Q) >= 0 {
		t.Fatalf("reduced scalar %v out of range", r)
	}
	want := new(big.Int).Sub(p.Q, big.NewInt(5))
	if r.Cmp(want) != 0 {
		t.Errorf("ReduceScalar(-5) = %v, want Q-5 = %v", r, want)
	}
}

// Property: exponentiation is a homomorphism from (Z, +) to the group for
// arbitrary signed inputs.
func TestQuickExpHomomorphism(t *testing.T) {
	p := TestParams()
	f := func(a, b int32) bool {
		ab := new(big.Int).Add(big.NewInt(int64(a)), big.NewInt(int64(b)))
		lhs := p.Mul(p.PowGInt64(int64(a)), p.PowGInt64(int64(b)))
		return lhs.Cmp(p.PowG(ab)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringDoesNotDumpInts(t *testing.T) {
	s := TestParams().String()
	if len(s) > 80 {
		t.Errorf("String too verbose: %q", s)
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
	ref := TestParams()
	fresh := &Params{P: ref.P, Q: ref.Q, G: ref.G}
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
