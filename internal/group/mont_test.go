package group

import (
	"math/big"
	"math/rand"
	"testing"
)

// randOdd returns a random odd modulus of exactly bits bits.
func randOdd(rng *rand.Rand, bits int) *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	r := new(big.Int).Rand(rng, m)
	m.Or(m, r)
	m.SetBit(m, 0, 1)
	return m
}

// TestMontMulMatchesBigInt pins MulMont against (a·b) mod p for random odd
// moduli across limb counts, including the >montStackLimbs allocation path.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{8, 63, 64, 65, 127, 128, 256, 257, 512, 1024, 1100} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		p := c.p
		for trial := 0; trial < 50; trial++ {
			a := new(big.Int).Rand(rng, p)
			b := new(big.Int).Rand(rng, p)
			am, bm, rm := c.Elem(), c.Elem(), c.Elem()
			c.ToMont(am, a)
			c.ToMont(bm, b)
			c.MulMont(rm, am, bm)
			got := c.FromMont(rm)
			want := new(big.Int).Mul(a, b)
			want.Mod(want, p)
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d: MulMont(%v, %v) = %v, want %v", bits, a, b, got, want)
			}
		}
	}
}

func TestMontRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{64, 256} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatal(err)
		}
		p := c.p
		for trial := 0; trial < 100; trial++ {
			x := new(big.Int).Rand(rng, p)
			xm := c.Elem()
			c.ToMont(xm, x)
			if got := c.FromMont(xm); got.Cmp(x) != 0 {
				t.Fatalf("bits=%d: round trip of %v = %v", bits, x, got)
			}
		}
	}
}

// ToMont must accept negative and ≥p inputs (it reduces them first).
func TestMontToMontReducesInput(t *testing.T) {
	c, err := NewMontCtx(big.NewInt(1000003))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{-1, -1000003, 1000003, 2000007, 0} {
		xm := c.Elem()
		xb := big.NewInt(x)
		c.ToMont(xm, xb)
		want := new(big.Int).Mod(xb, c.p)
		if got := c.FromMont(xm); got.Cmp(want) != 0 {
			t.Errorf("ToMont(%d) round-trips to %v, want %v", x, got, want)
		}
	}
}

func TestMontOne(t *testing.T) {
	c, err := NewMontCtx(big.NewInt(1_000_000_007))
	if err != nil {
		t.Fatal(err)
	}
	one := c.Elem()
	c.SetOne(one)
	if got := c.FromMont(one); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("FromMont(SetOne) = %v", got)
	}
	// 1 is the multiplicative identity in the Montgomery domain.
	x := big.NewInt(123456789)
	xm, rm := c.Elem(), c.Elem()
	c.ToMont(xm, x)
	c.MulMont(rm, xm, one)
	if got := c.FromMont(rm); got.Cmp(x) != 0 {
		t.Errorf("x·1 = %v, want %v", got, x)
	}
}

// MulMont's aliasing contract: dst may be a and/or b.
func TestMontMulAliasing(t *testing.T) {
	c, err := NewMontCtx(TestParams().P)
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(987654321)
	want := new(big.Int).Mul(x, x)
	want.Mod(want, c.p)
	xm := c.Elem()
	c.ToMont(xm, x)
	c.MulMont(xm, xm, xm) // square in place
	if got := c.FromMont(xm); got.Cmp(want) != 0 {
		t.Errorf("in-place square = %v, want %v", got, want)
	}
}

func TestNewMontCtxRejectsBadModuli(t *testing.T) {
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(10)} {
		if _, err := NewMontCtx(m); err == nil {
			t.Errorf("NewMontCtx(%v) accepted", m)
		}
	}
}

// The per-Params context is built once and shared; its arithmetic must
// agree with Params.Mul for both the test and the paper group.
func TestParamsMontMatchesMul(t *testing.T) {
	for _, params := range []*Params{TestParams(), PaperParams()} {
		c := params.Mont()
		if c != params.Mont() {
			t.Fatal("Mont() rebuilt the context")
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 30; trial++ {
			a := new(big.Int).Rand(rng, params.P)
			b := new(big.Int).Rand(rng, params.P)
			am, bm := c.Elem(), c.Elem()
			c.ToMont(am, a)
			c.ToMont(bm, b)
			c.MulMont(am, am, bm)
			if got := c.FromMont(am); got.Cmp(params.Mul(a, b)) != 0 {
				t.Fatalf("%s: MulMont disagrees with Mul", params)
			}
		}
	}
}

func BenchmarkMulMont(b *testing.B) {
	for _, params := range []*Params{TestParams(), PaperParams()} {
		b.Run(params.String(), func(b *testing.B) {
			c := params.Mont()
			x, _ := params.RandScalar(rand.New(rand.NewSource(4)))
			xm := c.Elem()
			c.ToMont(xm, params.PowG(x))
			dst := c.Elem()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MulMont(dst, xm, xm)
			}
		})
	}
}

// BenchmarkModMulBig is the displaced competitor: one big.Int Mul + QuoRem.
func BenchmarkModMulBig(b *testing.B) {
	for _, params := range []*Params{TestParams(), PaperParams()} {
		b.Run(params.String(), func(b *testing.B) {
			x, _ := params.RandScalar(rand.New(rand.NewSource(4)))
			g := params.PowG(x)
			var tmp, q, r big.Int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tmp.Mul(g, g)
				q.QuoRem(&tmp, params.P, &r)
			}
		})
	}
}

// TestMulMont4MatchesGeneric pins the unrolled 4-limb kernel against the
// generic CIOS loop over random odd moduli spanning the whole 4-limb range
// (193–256 bits), including in-place aliasing on either operand.
func TestMulMont4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, bits := range []int{193, 200, 224, 255, 256} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if c.Limbs() != 4 {
			t.Fatalf("bits=%d: limbs = %d, want 4", bits, c.Limbs())
		}
		p := c.p
		for trial := 0; trial < 200; trial++ {
			a := new(big.Int).Rand(rng, p)
			b := new(big.Int).Rand(rng, p)
			am, bm, want, got := c.Elem(), c.Elem(), c.Elem(), c.Elem()
			c.ToMont(am, a)
			c.ToMont(bm, b)
			c.mulMontGeneric(want, am, bm)
			mulMont4(got, am, bm, &c.p4, c.n0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d: mulMont4(%v,%v) = %v, want %v", bits, a, b, got, want)
				}
			}
			// dst aliasing a, then both operands.
			copy(got, am)
			mulMont4(got, got, bm, &c.p4, c.n0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d: aliased mulMont4 mismatch", bits)
				}
			}
			c.mulMontGeneric(want, am, am)
			copy(got, am)
			mulMont4(got, got, got, &c.p4, c.n0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d: in-place square via mulMont4 mismatch", bits)
				}
			}
		}
	}
}

// TestSquareMont4MatchesMul pins the dedicated squaring kernel against the
// generic loop's a·a across the 4-limb modulus range, plus edge values
// (0, 1, p−1) where the doubled cross products and the final subtraction
// are most likely to go wrong.
func TestSquareMont4MatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, bits := range []int{193, 224, 256} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		p := c.p
		vals := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2),
			new(big.Int).Sub(p, big.NewInt(1)),
		}
		for trial := 0; trial < 200; trial++ {
			vals = append(vals, new(big.Int).Rand(rng, p))
		}
		for _, a := range vals {
			am, want, got := c.Elem(), c.Elem(), c.Elem()
			c.ToMont(am, a)
			c.mulMontGeneric(want, am, am)
			squareMont4(got, am, &c.p4, c.n0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d: squareMont4(%v) = %v, want %v", bits, a, got, want)
				}
			}
			// SquareMont must allow dst to alias a (ExpMont squares in place).
			c.SquareMont(am, am)
			for i := range want {
				if am[i] != want[i] {
					t.Fatalf("bits=%d: in-place SquareMont mismatch", bits)
				}
			}
		}
	}
}

// TestSquareMontGenericWidths pins SquareMont at non-4-limb widths (where
// it routes through MulMont) so the dispatch itself is covered.
func TestSquareMontGenericWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, bits := range []int{64, 128, 512} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatal(err)
		}
		p := c.p
		for trial := 0; trial < 50; trial++ {
			a := new(big.Int).Rand(rng, p)
			am := c.Elem()
			c.ToMont(am, a)
			c.SquareMont(am, am)
			want := new(big.Int).Mul(a, a)
			want.Mod(want, p)
			if got := c.FromMont(am); got.Cmp(want) != 0 {
				t.Fatalf("bits=%d: SquareMont(%v) = %v, want %v", bits, a, got, want)
			}
		}
	}
}

// BenchmarkMulMont4 measures the unrolled 256-bit kernels against the
// generic CIOS loop they displace — the ≥2× headline of the speed-floor
// work, and the gated evidence that the dispatch keeps paying.
func BenchmarkMulMont4(b *testing.B) {
	params := PaperParams()
	c := params.Mont()
	x, _ := params.RandScalar(rand.New(rand.NewSource(4)))
	xm := c.Elem()
	c.ToMont(xm, params.PowG(x))
	dst := c.Elem()
	b.Run("unrolled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mulMont4(dst, xm, xm, &c.p4, c.n0)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.mulMontGeneric(dst, xm, xm)
		}
	})
	b.Run("square", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			squareMont4(dst, xm, &c.p4, c.n0)
		}
	})
}

// TestBatchInvMontMatchesInv pins the Montgomery-domain batch inversion
// against per-element ModInverse across batch sizes (including the
// single-element batch) and both group sizes.
func TestBatchInvMontMatchesInv(t *testing.T) {
	for _, params := range []*Params{TestParams(), PaperParams()} {
		c := params.Mont()
		k := c.Limbs()
		rng := rand.New(rand.NewSource(11))
		var scratch []uint64
		for _, n := range []int{1, 2, 3, 17, 64} {
			vals := make([]*big.Int, n)
			xs := make([]uint64, n*k)
			for i := range vals {
				e := new(big.Int).Rand(rng, params.Q)
				vals[i] = params.PowG(e)
				c.ToMont(xs[i*k:(i+1)*k], vals[i])
			}
			var err error
			if scratch, err = c.BatchInvMont(xs, scratch); err != nil {
				t.Fatalf("%s n=%d: %v", params, n, err)
			}
			for i := range vals {
				got := c.FromMont(xs[i*k : (i+1)*k])
				if want := params.Inv(vals[i]); got.Cmp(want) != 0 {
					t.Fatalf("%s n=%d: element %d inverse mismatch", params, n, i)
				}
			}
		}
	}
}

// TestBatchInvMontZeroFailsUntouched checks the error path: a zero element
// must report ErrNotInvertible and leave the slab unmodified.
func TestBatchInvMontZeroFailsUntouched(t *testing.T) {
	params := TestParams()
	c := params.Mont()
	k := c.Limbs()
	xs := make([]uint64, 3*k)
	c.ToMont(xs[:k], big.NewInt(7))
	// xs[k:2k] stays zero — not invertible.
	c.ToMont(xs[2*k:], big.NewInt(9))
	before := append([]uint64(nil), xs...)
	if _, err := c.BatchInvMont(xs, nil); err != ErrNotInvertible {
		t.Fatalf("err = %v, want ErrNotInvertible", err)
	}
	for i := range xs {
		if xs[i] != before[i] {
			t.Fatal("slab modified on error")
		}
	}
}
