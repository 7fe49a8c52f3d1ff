package group

import (
	"math/big"
	"math/rand"
	"slices"
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

// TestLimbDigit pins the exponent digit reader to its definition, w calls
// of big.Int.Bit, at every start bit and width ExpMont and Straus use, on
// values whose set bits straddle word boundaries — 64-bit words here,
// 32-bit ones where big.Word is 32 bits — and past the top word.
func TestLimbDigit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	one := big.NewInt(1)
	word := new(big.Int).Lsh(one, 64)
	xs := []*big.Int{
		new(big.Int), one, big.NewInt(1<<5 - 1), big.NewInt(1 << 5),
		new(big.Int).Sub(word, one), word, new(big.Int).Lsh(big.NewInt(0x1f), 30),
		new(big.Int).Lsh(big.NewInt(0x1f), 62), new(big.Int).Rand(rng, new(big.Int).Lsh(one, 257)),
	}
	for _, x := range xs {
		words := x.Bits()
		for w := uint(1); w <= 8; w++ {
			for i := uint(0); i < uint(x.BitLen())+10; i++ {
				var want uint
				for b := uint(0); b < w; b++ {
					want |= x.Bit(int(i+b)) << b
				}
				if got := limbDigit(words, i, w); got != want {
					t.Fatalf("x=%#x: digit at bit %d, width %d = %#x, want %#x", x, i, w, got, want)
				}
			}
		}
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

// mont4Kernels are the 4-limb products MulMont can select: the portable
// Go body, and the assembly one where the CPU has MULX and ADX.
var mont4Kernels = []struct {
	name string
	asm  bool
	mul  func(dst, a, b []uint64, p *[4]uint64, n0 uint64)
}{
	{"go", false, mulMont4},
	{"adx", true, func(dst, a, b []uint64, p *[4]uint64, n0 uint64) {
		mulMont4ADX((*[4]uint64)(dst), (*[4]uint64)(a), (*[4]uint64)(b), p, n0)
	}},
}

// TestMulMont4MatchesGeneric pins every 4-limb kernel limb-exact against
// the generic CIOS loop, over random odd moduli spanning the whole 4-limb
// range (193–256 bits) and the paper's prime. Every pair of 0, 1, R mod p,
// p−1, random values and their inverses is multiplied into a fresh dst,
// into dst aliasing a and into dst aliasing b, and every value is squared
// in place. A value times its inverse is R mod p, which for a 256-bit p
// the last round often leaves as exactly 2^256: the top carry word is then
// the whole answer, a case random pairs reach with probability near 2^-64.
func TestMulMont4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// The paper's prime, and the largest 4-limb modulus, the one width at
	// which a round's additions carry into the accumulator's sixth word.
	moduli := []*big.Int{PaperParams().P, new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)}
	for _, bits := range []int{193, 200, 224, 255, 256} {
		moduli = append(moduli, randOdd(rng, bits))
	}
	for _, kernel := range mont4Kernels {
		t.Run(kernel.name, func(t *testing.T) {
			if kernel.asm && !useADX {
				t.Skip("CPU lacks BMI2 or ADX")
			}
			for _, p := range moduli {
				c, err := NewMontCtx(p)
				if err != nil {
					t.Fatal(err)
				}
				if c.Limbs() != 4 {
					t.Fatalf("%d-bit modulus: limbs = %d, want 4", p.BitLen(), c.Limbs())
				}
				vals := [][]uint64{c.Elem(), c.Elem(), c.Elem(), c.Elem()}
				vals[1][0] = 1
				c.SetOne(vals[2])
				packLimbs(vals[3], new(big.Int).Sub(p, one))
				r2 := new(big.Int).Lsh(one, 512)
				for i := 0; i < 12; i++ {
					x := new(big.Int).Rand(rng, p)
					v := c.Elem()
					packLimbs(v, x)
					vals = append(vals, v)
					if inv := new(big.Int).ModInverse(x, p); inv != nil {
						w := c.Elem()
						packLimbs(w, inv.Mod(inv.Mul(inv, r2), p)) // MulMont(v, w) = R mod p
						vals = append(vals, w)
					}
				}
				want, got := c.Elem(), c.Elem()
				check := func(what string, a, b []uint64) {
					t.Helper()
					if !slices.Equal(got, want) {
						t.Fatalf("%d-bit modulus, %s: %s(%x, %x) = %x, want %x", p.BitLen(), what, kernel.name, a, b, got, want)
					}
				}
				for _, a := range vals {
					for _, b := range vals {
						c.mulMontGeneric(want, a, b)
						kernel.mul(got, a, b, &c.p4, c.n0)
						check("fresh dst", a, b)
						copy(got, a)
						kernel.mul(got, got, b, &c.p4, c.n0)
						check("dst aliasing a", a, b)
						copy(got, b)
						kernel.mul(got, a, got, &c.p4, c.n0)
						check("dst aliasing b", a, b)
					}
					c.mulMontGeneric(want, a, a)
					copy(got, a)
					kernel.mul(got, got, got, &c.p4, c.n0)
					check("square in place", a, a)
				}
			}
		})
	}
}

// FuzzMulMont4 checks the kernel MulMont selects at the paper's prime, and
// the portable mulMont4 beside it, against the generic CIOS loop on
// fuzzer-chosen limbs reduced mod p.
func FuzzMulMont4(f *testing.F) {
	c := PaperParams().Mont()
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(c.r1[0], c.r1[1], c.r1[2], c.r1[3], c.pw[0]-1, c.pw[1], c.pw[2], c.pw[3])
	// x and 1/x in Montgomery form: their product is R mod p, and for
	// these x the last round leaves it as 2^256 (see
	// TestMulMont4MatchesGeneric).
	for _, x := range []int64{3, 5, 9, 10} {
		a, b := c.Elem(), c.Elem()
		c.ToMont(a, big.NewInt(x))
		c.ToMont(b, new(big.Int).ModInverse(big.NewInt(x), c.p))
		f.Add(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
	}
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		a, b := c.Elem(), c.Elem()
		packLimbs(a, new(big.Int).Mod(unpackLimbs([]uint64{a0, a1, a2, a3}), c.p))
		packLimbs(b, new(big.Int).Mod(unpackLimbs([]uint64{b0, b1, b2, b3}), c.p))
		want, got, portable := c.Elem(), c.Elem(), c.Elem()
		c.mulMontGeneric(want, a, b)
		c.MulMont(got, a, b)
		mulMont4(portable, a, b, &c.p4, c.n0)
		if !slices.Equal(got, want) || !slices.Equal(portable, want) {
			t.Fatalf("MulMont(%x, %x) = %x, mulMont4 = %x, want %x", a, b, got, portable, want)
		}
	})
}

// TestMulMontSquares pins squaring, MulMont(a, a, a) in place, against
// big.Int at the generic widths and at 4 limbs, where no kernel of its
// own remains.
func TestMulMontSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, bits := range []int{64, 128, 256, 512} {
		c, err := NewMontCtx(randOdd(rng, bits))
		if err != nil {
			t.Fatal(err)
		}
		p := c.p
		for trial := 0; trial < 50; trial++ {
			a := new(big.Int).Rand(rng, p)
			am := c.Elem()
			c.ToMont(am, a)
			c.MulMont(am, am, am)
			want := new(big.Int).Mul(a, a)
			want.Mod(want, p)
			if got := c.FromMont(am); got.Cmp(want) != 0 {
				t.Fatalf("bits=%d: %v² = %v, want %v", bits, a, got, want)
			}
		}
	}
}

// TestMontDoesNotAllocate pins the 256-bit entry points to their stack
// scratch, with either kernel selected: an assembly stub that let its
// pointers escape would move ToMont's and FromMont's scratch to the heap.
// FromMont allocates its result and nothing else.
func TestMontDoesNotAllocate(t *testing.T) {
	run := func(t *testing.T) {
		c := PaperParams().Mont()
		x := new(big.Int).Sub(c.p, big.NewInt(12345))
		xm, dst := c.Elem(), c.Elem()
		c.ToMont(xm, x)
		if n := testing.AllocsPerRun(100, func() { c.MulMont(dst, xm, xm) }); n != 0 {
			t.Errorf("MulMont allocates %.1f times per call", n)
		}
		if n := testing.AllocsPerRun(100, func() { c.ToMont(dst, x) }); n != 0 {
			t.Errorf("ToMont allocates %.1f times per call", n)
		}
		result := testing.AllocsPerRun(100, func() { _ = unpackLimbs(xm) })
		if n := testing.AllocsPerRun(100, func() { _ = c.FromMont(xm) }); n != result {
			t.Errorf("FromMont allocates %.1f times per call, its result %.1f", n, result)
		}
	}
	t.Run("selected", run)
	t.Run("portable", func(t *testing.T) {
		usePortableKernel(t)
		run(t)
	})
}

// BenchmarkMulMont4 measures the 4-limb kernels against the generic CIOS
// loop they displace, on three access patterns: the same operands every
// call, a dependent chain (dst = dst·x, the shape of a ladder), and
// independent products over 64 distinct operand pairs (the shape of a
// table build or a batch of denominators).
func BenchmarkMulMont4(b *testing.B) {
	params := PaperParams()
	c := params.Mont()
	rng := rand.New(rand.NewSource(4))
	const n = 64
	xs, dsts := make([]uint64, 4*n), make([]uint64, 4*n)
	for i := 0; i < n; i++ {
		x, _ := params.RandScalar(rng)
		c.ToMont(xs[4*i:4*i+4], params.PowG(x))
	}
	x, dst := xs[:4], dsts[:4]
	for _, kernel := range mont4Kernels {
		if kernel.asm && !useADX {
			continue
		}
		b.Run(kernel.name+"/same-input", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.mul(dst, x, x, &c.p4, c.n0)
			}
		})
		b.Run(kernel.name+"/chain", func(b *testing.B) {
			b.ReportAllocs()
			copy(dst, x)
			for i := 0; i < b.N; i++ {
				kernel.mul(dst, dst, x, &c.p4, c.n0)
			}
		})
		b.Run(kernel.name+"/independent", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j, k := 4*(i&(n-1)), 4*((i+1)&(n-1))
				kernel.mul(dsts[j:j+4], xs[j:j+4], xs[k:k+4], &c.p4, c.n0)
			}
		})
	}
	b.Run("generic/same-input", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.mulMontGeneric(dst, x, x)
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
