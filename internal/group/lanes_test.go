package group

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// TestKernelSelection logs which 256-bit kernels CPUID selected on this CPU,
// so a test log says what the run exercised; every lane-only test skips
// through skipWithoutLanes with the same reason.
func TestKernelSelection(t *testing.T) {
	t.Logf("scalar 4-limb product: %s", map[bool]string{true: "mulMont4ADX (BMI2+ADX)", false: "mulMont4 (portable Go)"}[useADX])
	t.Logf("8-lane product for PowRecoded: %s", map[bool]string{true: "mulMontLanes (AVX512F+AVX512_IFMA, ZMM state enabled)", false: "absent: every base runs the scalar body"}[useLanes])
}

// skipWithoutLanes skips a test of the lane kernel on a CPU without it.
func skipWithoutLanes(t testing.TB) {
	t.Helper()
	if !useLanes {
		t.Skip("no lane kernel: the CPU lacks AVX512F or AVX512_IFMA, or the OS has not enabled the ZMM state")
	}
}

// setLaneBig writes x, below 2^260, into lane l of e.
func setLaneBig(e *laneElem, l int, x *big.Int) {
	v := new(big.Int).Set(x)
	for j := range laneLimbs {
		e[j*laneCount+l] = new(big.Int).And(v, big.NewInt(laneMask)).Uint64()
		v.Rsh(v, laneBits)
	}
}

// laneBig returns lane l of e as an integer.
func laneBig(e *laneElem, l int) *big.Int {
	v := new(big.Int)
	for j := laneLimbs - 1; j >= 0; j-- {
		v.Lsh(v, laneBits).Or(v, new(big.Int).SetUint64(e[j*laneCount+l]))
	}
	return v
}

// FuzzMulMontLanes checks the 8-lane product against MulMont: lane l of
// a·b must be below 2p, its limbs below 2^52, and congruent to
// a_l·b_l·2^-260, which is MulMont(MulMont(a_l, b_l), 2^252). The fuzzer's
// a and b are reduced mod p; odd lanes add p to one operand or both, so
// every lane product sees unreduced inputs below 2p as it does inside a
// chain. Seeds are 0, p−1 and Montgomery-form inverse pairs.
func FuzzMulMontLanes(f *testing.F) {
	skipWithoutLanes(f)
	c := PaperParams().Mont()
	pm1 := new(big.Int).Sub(c.p, one)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(c.pw[0]-1, c.pw[1], c.pw[2], c.pw[3], c.pw[0]-1, c.pw[1], c.pw[2], c.pw[3])
	for _, x := range []int64{2, 3, 5, 9, 10} {
		a, b := c.Elem(), c.Elem()
		c.ToMont(a, big.NewInt(x))
		c.ToMont(b, new(big.Int).ModInverse(big.NewInt(x), c.p))
		f.Add(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
	}
	t252 := c.Elem()
	packLimbs(t252, new(big.Int).Mod(new(big.Int).Lsh(one, 252), c.p))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		a := new(big.Int).Mod(unpackLimbs([]uint64{a0, a1, a2, a3}), c.p)
		b := new(big.Int).Mod(unpackLimbs([]uint64{b0, b1, b2, b3}), c.p)
		var la, lb, got laneElem
		want := make([]*big.Int, laneCount)
		for l := range laneCount {
			// Lane l takes a + l(l+1) and b − l mod p, so no two lanes
			// agree, and the last one p−1 for a; odd lanes then lift a by
			// p, every fourth b too.
			al := new(big.Int).Mod(new(big.Int).Add(a, big.NewInt(int64(l)*int64(l+1))), c.p)
			bl := new(big.Int).Mod(new(big.Int).Sub(b, big.NewInt(int64(l))), c.p)
			if l == laneCount-1 {
				al.Set(pm1)
			}
			am, bm, w := c.Elem(), c.Elem(), c.Elem()
			packLimbs(am, al)
			packLimbs(bm, bl)
			c.MulMont(w, am, bm)
			c.MulMont(w, w, t252)
			want[l] = unpackLimbs(w)
			if l%2 == 1 {
				al.Add(al, c.p)
			}
			if l%4 == 3 {
				bl.Add(bl, c.p)
			}
			setLaneBig(&la, l, al)
			setLaneBig(&lb, l, bl)
		}
		for _, aliased := range []bool{false, true} {
			got = la
			if aliased {
				mulMontLanes(&got, &got, &lb, c.lanes)
			} else {
				mulMontLanes(&got, &la, &lb, c.lanes)
			}
			alias := map[bool]string{false: "fresh dst", true: "dst aliasing a"}[aliased]
			for l := range laneCount {
				v := laneBig(&got, l)
				for j := range laneLimbs {
					if got[j*laneCount+l] > laneMask && j < laneLimbs-1 {
						t.Fatalf("%s: lane %d limb %d = %x is not normalised", alias, l, j, got[j*laneCount+l])
					}
				}
				if v.Cmp(new(big.Int).Lsh(c.p, 1)) >= 0 {
					t.Fatalf("%s: lane %d = %v is not below 2p", alias, l, v)
				}
				if v.Mod(v, c.p).Cmp(want[l]) != 0 {
					t.Fatalf("%s: lane %d of %v·%v: got %v, want %v", alias, l, a, b, v, want[l])
				}
			}
		}
	})
}

// TestSqrChainLanes pins the squaring-chain kernel to mulMontLanes applied
// step by step, over a chain of 300 squares of eight random values.
func TestSqrChainLanes(t *testing.T) {
	skipWithoutLanes(t)
	c := PaperParams().Mont()
	rng := rand.New(rand.NewSource(5))
	chain := make([]laneElem, 300)
	for l := range laneCount {
		setLaneBig(&chain[0], l, new(big.Int).Rand(rng, new(big.Int).Lsh(c.p, 1)))
	}
	sqrChainLanes(chain, c.lanes)
	want := chain[0]
	for i := 1; i < len(chain); i++ {
		mulMontLanes(&want, &want, &want, c.lanes)
		if !slices.Equal(want[:], chain[i][:]) {
			t.Fatalf("square %d: chain kernel %x, product kernel %x", i, chain[i], want)
		}
	}
}

// TestPowRecodedLanesDoesNotAllocate pins the lane path of PowRecoded, once
// its scratch has grown, to no allocation per call: its lane elements live
// in the recycled EphemeralExps or on the stack, and a kernel stub that let
// a pointer escape would move them to the heap.
func TestPowRecodedLanesDoesNotAllocate(t *testing.T) {
	skipWithoutLanes(t)
	p := PaperParams()
	k := p.Mont().Limbs()
	rng := rand.New(rand.NewSource(8))
	exps := []*big.Int{new(big.Int).Rand(rng, p.Q), new(big.Int).Rand(rng, p.Q)}
	bases := make([]*big.Int, 11) // one run of eight, one of three
	for i := range bases {
		bases[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
	}
	pos, neg := make([]uint64, len(bases)*len(exps)*k), make([]uint64, len(bases)*len(exps)*k)
	x := p.RecodeSigned(exps, nil)
	if n := testing.AllocsPerRun(20, func() { x.PowRecoded(pos, neg, bases) }); n != 0 {
		t.Errorf("PowRecoded over %d bases allocates %.1f times per call", len(bases), n)
	}
}
