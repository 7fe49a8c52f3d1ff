package group

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestKernelSelection logs which 256-bit kernels CPUID selected on this CPU,
// so a test log says what the run exercised; every lane-only test skips
// through skipWithoutLanes with the same reason.
func TestKernelSelection(t *testing.T) {
	t.Logf("scalar 4-limb product: %s", map[bool]string{true: "mulMont4ADX (BMI2+ADX)", false: "mulMont4 (portable Go)"}[useADX])
	t.Logf("8-lane product for PowRecoded, the many-rows multi-exponentiation and MultiExp: %s", map[bool]string{true: "mulMontLanes and mulPickLanes (AVX512F+AVX512_IFMA, ZMM state enabled)", false: "absent: every base, column and product runs the scalar body"}[useLanes])
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

// TestMultiExpRowsDoesNotAllocate pins the many-rows form, once its scratch
// has grown, to no allocation per call, through the lanes and through the
// scalar body: the lane tables and slots live in the recycled scratch and
// the fold's lane element on the stack, and a kernel stub that let a
// pointer escape would move them to the heap.
func TestMultiExpRowsDoesNotAllocate(t *testing.T) {
	p := PaperParams()
	k := p.Mont().Limbs()
	rng := rand.New(rand.NewSource(12))
	const carried, n = 9, 8
	support := make([]int, carried)
	for i := range support {
		support[i] = i
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, carried)
		for c := range rows[i] {
			rows[i][c] = rng.Int63n(131071) - 65535
		}
	}
	cols := make([][]*big.Int, 11) // one run of eight, one of three
	for c := range cols {
		cols[c] = make([]*big.Int, carried)
		for i := range cols[c] {
			cols[c][i] = p.PowG(new(big.Int).Rand(rng, p.Q))
		}
	}
	pos, neg := make([]uint64, len(cols)*n*k), make([]uint64, len(cols)*n*k)
	for _, kernel := range []string{"lanes", "scalar"} {
		t.Run(kernel, func(t *testing.T) {
			var scratch []uint64
			call := func() { scratch = p.MultiExpInt64RowsMontParts(pos, neg, cols, support, rows, scratch) }
			var allocs float64
			if kernel == "lanes" {
				skipWithoutLanes(t)
				allocs = testing.AllocsPerRun(20, call)
			} else {
				withoutLanes(func() { allocs = testing.AllocsPerRun(20, call) })
			}
			if allocs != 0 {
				t.Errorf("%d columns × %d rows allocate %.1f times per call", len(cols), n, allocs)
			}
		})
	}
}

// FuzzMultiExpRowsLanes pins the lane body of the many-rows form to the
// scalar body: two to eight columns on a random support of rows up to 16
// wide (empty included), up to 12 rows of weights read from the fuzzer's
// bytes, each shifted right by a byte of its own so that every magnitude
// comes up, and coordinates that are random members or, one in eight, 0, 1,
// p−1, a non-residue or a member plus p. Both halves of every cell must
// agree limb for limb.
func FuzzMultiExpRowsLanes(f *testing.F) {
	skipWithoutLanes(f)
	p := PaperParams()
	k := p.Mont().Limbs()
	f.Add(int64(1), uint16(0), []byte{})
	f.Add(int64(2), uint16(0xffff), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0})
	f.Add(int64(3), uint16(0x1234), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		m, n, width := 2+int(shape%7), 1+int((shape>>3)%12), 1+int((shape>>7)%16)
		var support []int
		for i := range width {
			if rng.Intn(2) == 0 {
				support = append(support, i)
			}
		}
		weight := func(i int) int64 {
			if len(raw) == 0 {
				return rng.Int63() - rng.Int63()
			}
			var b [9]byte
			for j := range b {
				b[j] = raw[(9*i+j)%len(raw)]
			}
			return int64(binary.LittleEndian.Uint64(b[:8])) >> (b[8] % 64)
		}
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, width)
			for c := range rows[i] {
				rows[i][c] = weight(i*width + c)
			}
		}
		member := func() *big.Int { return p.PowG(new(big.Int).Rand(rng, p.Q)) }
		specials := []func() *big.Int{
			func() *big.Int { return new(big.Int) },
			func() *big.Int { return big.NewInt(1) },
			func() *big.Int { return new(big.Int).Sub(p.P, one) },
			func() *big.Int { return new(big.Int).Sub(p.P, member()) },
			func() *big.Int { return new(big.Int).Add(member(), p.P) },
		}
		cols := make([][]*big.Int, m)
		for c := range cols {
			cols[c] = make([]*big.Int, len(support))
			for i := range cols[c] {
				if rng.Intn(8) == 0 {
					cols[c][i] = specials[rng.Intn(len(specials))]()
				} else {
					cols[c][i] = member()
				}
			}
		}
		pos, neg := make([]uint64, m*n*k), make([]uint64, m*n*k)
		scalarPos, scalarNeg := make([]uint64, m*n*k), make([]uint64, m*n*k)
		p.MultiExpInt64RowsMontParts(pos, neg, cols, support, rows, nil)
		withoutLanes(func() { p.MultiExpInt64RowsMontParts(scalarPos, scalarNeg, cols, support, rows, nil) })
		for c := range m {
			for i := range n {
				at := (c*n + i) * k
				if !slices.Equal(pos[at:at+k], scalarPos[at:at+k]) || !slices.Equal(neg[at:at+k], scalarNeg[at:at+k]) {
					t.Fatalf("%d columns × %d rows on support %v: column %d, row %d: lanes %x/%x, scalar %x/%x",
						m, n, support, c, i, pos[at:at+k], neg[at:at+k], scalarPos[at:at+k], scalarNeg[at:at+k])
				}
			}
		}
	})
}

// TestLaneConstsLayout pins the laneConsts offsets lanes_amd64.s reads by
// number: p, n0 and the mask for every product, one and pick for
// mulPickLanes.
func TestLaneConstsLayout(t *testing.T) {
	var c laneConsts
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"p", unsafe.Offsetof(c.p), 0},
		{"n0", unsafe.Offsetof(c.n0), 320},
		{"mask", unsafe.Offsetof(c.mask), 384},
		{"one", unsafe.Offsetof(c.one), 1088},
		{"pick", unsafe.Offsetof(c.pick), 1408},
	} {
		if f.got != f.want {
			t.Errorf("laneConsts.%s at offset %d, the assembly reads it at %d", f.name, f.got, f.want)
		}
	}
}

// TestMultiExpDoesNotAllocate pins the Straus body, once its scratch has
// grown, to no allocation per call, through the lanes and through the
// scalar kernel: the tables live in the scratch's slab and the picks in
// registers, and a kernel stub that let a pointer escape would move them to
// the heap.
func TestMultiExpDoesNotAllocate(t *testing.T) {
	p := PaperParams()
	rng := rand.New(rand.NewSource(14))
	bases, exps := make([]*big.Int, 11), make([]*big.Int, 11) // one run of eight, one of three
	for i := range bases {
		bases[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
		exps[i] = new(big.Int).Rand(rng, p.Q)
	}
	dst := p.Mont().Elem()
	for _, kernel := range []string{"lanes", "scalar"} {
		t.Run(kernel, func(t *testing.T) {
			sc := new(strausScratch)
			call := func() { p.strausProd(dst, bases, exps, sc) }
			var allocs float64
			if kernel == "lanes" {
				skipWithoutLanes(t)
				allocs = testing.AllocsPerRun(20, call)
			} else {
				withoutLanes(func() { allocs = testing.AllocsPerRun(20, call) })
			}
			if allocs != 0 {
				t.Errorf("%d bases allocate %.1f times per call", len(bases), allocs)
			}
		})
	}
}

// FuzzMultiExpLanes pins the lane body of MultiExp to the scalar body, and
// both to Π Params.Exp: 1 to 40 members (counts that fill no whole run of
// eight included) raised to exponents up to 1–256 bits wide, one in four
// replaced by 0, 1, Q−1, a value ≥ Q or a negative one. The sign-split
// halves are run on each kernel whatever strausLaneMin says, and must agree
// limb for limb; MultiExp with the lanes on and off must give the product.
func FuzzMultiExpLanes(f *testing.F) {
	skipWithoutLanes(f)
	p := PaperParams()
	mc := p.Mont()
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0xffff))
	f.Add(int64(3), uint16(7|255<<6))
	f.Add(int64(4), uint16(39|127<<6))
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		rng := rand.New(rand.NewSource(seed))
		n, bits := 1+int(shape%40), 1+int(shape>>6%256)
		bound := new(big.Int).Lsh(one, uint(bits))
		specials := []func() *big.Int{
			func() *big.Int { return new(big.Int) },
			func() *big.Int { return big.NewInt(1) },
			func() *big.Int { return new(big.Int).Sub(p.Q, one) },
			func() *big.Int { return new(big.Int).Add(p.Q, new(big.Int).Rand(rng, bound)) },
			func() *big.Int { return new(big.Int).Neg(new(big.Int).Rand(rng, bound)) },
		}
		bases, exps := make([]*big.Int, n), make([]*big.Int, n)
		want := big.NewInt(1)
		for i := range bases {
			bases[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
			if rng.Intn(4) == 0 {
				exps[i] = specials[rng.Intn(len(specials))]()
			} else {
				exps[i] = new(big.Int).Rand(rng, bound)
			}
			want = p.Mul(want, p.Exp(bases[i], exps[i]))
		}
		sc := new(strausScratch)
		sc.split(p, bases, exps)
		for _, half := range []struct {
			name        string
			bases, exps []*big.Int
		}{{"positive", sc.posB, sc.posE}, {"negative", sc.negB, sc.negE}} {
			lanes, scalar := mc.Elem(), mc.Elem()
			strausRun(p, laneKernel{mc}, lanes, half.bases, half.exps, new(strausScratch))
			strausRun(p, scalarKernel{mc}, scalar, half.bases, half.exps, new(strausScratch))
			if !slices.Equal(lanes, scalar) {
				t.Fatalf("%d bases, %d bits: the %s half on the lanes is %x, on the scalar kernel %x", n, bits, half.name, lanes, scalar)
			}
		}
		var scalarGot *big.Int
		withoutLanes(func() { scalarGot = p.MultiExp(bases, exps) })
		if got := p.MultiExp(bases, exps); got.Cmp(want) != 0 || scalarGot.Cmp(want) != 0 {
			t.Fatalf("%d bases, %d bits: MultiExp gives %v with the lanes and %v without, Π Exp %v", n, bits, got, scalarGot, want)
		}
	})
}
