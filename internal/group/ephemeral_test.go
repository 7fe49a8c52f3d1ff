package group

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestRecodeSignedReconstructs pins the signed recoding PowRecoded reads: at
// three group sizes, over the conformance exponents, the limb vectors whose
// carries run furthest (all ones, alternating bits) and random limbs among
// whole limbs of zeros and of ones, the width-nafWidth
// NAF digits Σ ±(2m+1)·2^pos must reconstruct the value, sit in increasing
// positions at least nafWidth apart, address one of the 2·nafBuckets
// buckets, and stop at the value's bit length. The squaring chain of a set
// must reach its highest digit and no further.
func TestRecodeSignedReconstructs(t *testing.T) {
	for _, bits := range conformanceBits {
		params, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		n := params.scalarLimbCount()
		var limbSets [][]uint64
		for _, e := range conformanceExponents(params, rand.New(rand.NewSource(int64(bits)))) {
			limbSets = append(limbSets, params.ScalarLimbs(e, nil))
		}
		ones, alternating := make([]uint64, n), make([]uint64, n)
		for i := range ones {
			ones[i], alternating[i] = ^uint64(0), 0xAAAAAAAAAAAAAAAA
		}
		limbSets = append(limbSets, ones, alternating)
		rng := rand.New(rand.NewSource(int64(bits) + 3))
		for i := 0; i < 64; i++ {
			el := make([]uint64, n)
			// Random limbs between whole limbs of zeros and of ones, so runs
			// cross limb boundaries both ways.
			for j := range el {
				switch rng.Intn(4) {
				case 0:
				case 1:
					el[j] = ^uint64(0)
				default:
					el[j] = rng.Uint64()
				}
			}
			limbSets = append(limbSets, el)
		}
		var buf []nafDigit
		for _, el := range limbSets {
			v := unpackLimbs(el)
			buf = appendNAF(buf[:0], el)
			acc, term := new(big.Int), new(big.Int)
			for i, dg := range buf {
				if dg.bucket >= 2*nafBuckets {
					t.Fatalf("bits=%d: %v: digit %d addresses bucket %d", bits, v, i, dg.bucket)
				}
				if i > 0 && dg.pos < buf[i-1].pos+nafWidth {
					t.Fatalf("bits=%d: %v: digits at %d and %d are adjacent", bits, v, buf[i-1].pos, dg.pos)
				}
				term.SetInt64(int64(2*(dg.bucket%nafBuckets) + 1))
				if dg.bucket >= nafBuckets {
					term.Neg(term)
				}
				acc.Add(acc, term.Lsh(term, uint(dg.pos)))
			}
			if acc.Cmp(v) != 0 {
				t.Fatalf("bits=%d: NAF of %v reconstructs %v", bits, v, acc)
			}
			if len(buf) > 0 && int(buf[len(buf)-1].pos) > v.BitLen() {
				t.Fatalf("bits=%d: NAF of %v reaches position %d past its %d bits", bits, v, buf[len(buf)-1].pos, v.BitLen())
			}
		}
		exps := conformanceExponents(params, rand.New(rand.NewSource(int64(bits))))
		top := 0
		for _, e := range exps {
			if d := appendNAF(nil, params.ScalarLimbs(e, nil)); len(d) > 0 {
				top = max(top, int(d[len(d)-1].pos))
			}
		}
		if x := params.RecodeSigned(exps, nil); x.top != top || top > params.Q.BitLen() {
			t.Errorf("bits=%d: the set's chain height is %d, its highest digit at %d, Q %d bits", bits, x.top, top, params.Q.BitLen())
		}
	}
}

// FuzzEphemeralShared pins the shared-squaring engine to Params.Exp at 256
// bits: g^seed raised to a set of up to eight exponents cut from raw, 32
// big-endian bytes each, so values at and past Q arrive unreduced. The
// seeds are 0, 1, Q−1, Q and 2^256−1, one at a time and all at once.
func FuzzEphemeralShared(f *testing.F) {
	p := PaperParams()
	word := func(e *big.Int) []byte { return e.FillBytes(make([]byte, 32)) }
	var all []byte
	for _, e := range []*big.Int{
		new(big.Int), big.NewInt(1), new(big.Int).Sub(p.Q, one), p.Q,
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	} {
		f.Add(uint64(2), word(e))
		all = append(all, word(e)...)
	}
	f.Add(uint64(1<<63+5), all)
	k := p.Mont().Limbs()
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		exps := make([]*big.Int, min(len(raw)/32, 8))
		for i := range exps {
			exps[i] = new(big.Int).SetBytes(raw[32*i : 32*(i+1)])
		}
		base := p.PowG(new(big.Int).SetUint64(seed))
		pos, neg := make([]uint64, len(exps)*k), make([]uint64, len(exps)*k)
		p.RecodeSigned(exps, nil).PowRecoded(pos, neg, []*big.Int{base})
		for i, e := range exps {
			if got, want := montQuotient(p, pos[i*k:(i+1)*k], neg[i*k:(i+1)*k]), p.Exp(base, e); got.Cmp(want) != 0 {
				t.Fatalf("g^%d to exponent %d of %d, %x: got %v, want %v", seed, i, len(exps), e, got, want)
			}
		}
	})
}
