package group

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// Conformance harness: every exponentiation path in this package is an
// adapter of one shape, run over one shared exponent set, and must return
// the group element Params.Exp returns. An engine is only ever deleted or
// swapped behind this table; a decrypted value that differs between two
// engines is a bug, never noise.

// powPath is one way of computing base^e. mk binds the path to a (group,
// base) pair once — table builds happen here, not per exponent — and
// returns the evaluator.
type powPath struct {
	name string
	// genOnly marks paths that exist only for the generator.
	genOnly bool
	// ok restricts the exponents the path is defined on (nil: all).
	ok func(e *big.Int) bool
	mk func(p *Params, base *big.Int) func(e *big.Int) *big.Int
}

func fitsInt64(e *big.Int) bool { return e.IsInt64() }

func fitsUint64(e *big.Int) bool { return e.Sign() >= 0 && e.IsUint64() }

// combPaths returns the comb's evaluation entry points at one geometry.
func combPaths(label string, h, v int) []powPath {
	build := func(p *Params, base *big.Int) (*FixedBaseComb, *MontCtx, []uint64) {
		mc := p.Mont()
		return p.newFixedBaseComb(base, h, v), mc, mc.Elem()
	}
	return []powPath{
		{name: "comb/" + label + "/PowMont", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			c, mc, dst := build(p, base)
			return func(e *big.Int) *big.Int { c.PowMont(dst, e); return mc.FromMont(dst) }
		}},
		{name: "comb/" + label + "/PowMontLimbs", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			c, mc, dst := build(p, base)
			var el []uint64
			return func(e *big.Int) *big.Int {
				el = p.ScalarLimbs(e, el)
				c.PowMontLimbs(dst, el)
				return mc.FromMont(dst)
			}
		}},
		{name: "comb/" + label + "/Gather+PowMontGathered", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			c, mc, dst := build(p, base)
			// Patterns gathered on a sibling comb of the same geometry —
			// the feip batch-encrypt contract.
			sibling := p.newFixedBaseComb(p.G, h, v)
			var el []uint64
			var us []uint32
			return func(e *big.Int) *big.Int {
				el = p.ScalarLimbs(e, el)
				us = sibling.Gather(el, us)
				c.PowMontGathered(dst, us)
				return mc.FromMont(dst)
			}
		}},
	}
}

func powPaths() []powPath {
	var paths []powPath
	paths = append(paths, combPaths("gen", combTeethGen, combSplitGen)...)
	paths = append(paths, combPaths("key-narrow", combTeethKey, combSplitKey)...)
	paths = append(paths, combPaths("key-wide", combTeethKeyWide, combSplitKeyWide)...)
	paths = append(paths,
		// A comb out of the batch builder, whose workers build the combs of
		// a master public key side by side: it must be the comb the one-base
		// constructor builds, slab for slab, wherever it sits in the batch.
		powPath{name: "comb/NewFixedBaseCombs", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			bases := make([]*big.Int, 37)
			for i := range bases {
				bases[i] = p.Mul(base, p.PowGInt64(int64(i-11)))
			}
			combs := p.NewFixedBaseCombs(bases) // bases[11] is base
			for i, c := range combs {
				if !slices.Equal(c.slab, p.NewFixedBaseComb(bases[i]).slab) {
					panic(fmt.Sprintf("comb %d of the batch differs from the comb built alone", i))
				}
			}
			mc := p.Mont()
			dst := mc.Elem()
			return func(e *big.Int) *big.Int { combs[11].PowMont(dst, e); return mc.FromMont(dst) }
		}},
		ephemeralPath(),
		// The generator's whole surface: the dense slab inside
		// ±DenseDefault, the generator comb outside it.
		powPath{name: "generator/PowG", genOnly: true, mk: func(p *Params, _ *big.Int) func(*big.Int) *big.Int {
			return p.PowG
		}},
		powPath{name: "generator/PowGInt64", genOnly: true, ok: fitsInt64, mk: func(p *Params, _ *big.Int) func(*big.Int) *big.Int {
			return func(e *big.Int) *big.Int { return p.PowGInt64(e.Int64()) }
		}},
		powPath{name: "generator/PowGMont", genOnly: true, mk: func(p *Params, _ *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			dst := mc.Elem()
			return func(e *big.Int) *big.Int { p.PowGMont(dst, e); return mc.FromMont(dst) }
		}},
		powPath{name: "generator/PowGInt64Mont", genOnly: true, ok: fitsInt64, mk: func(p *Params, _ *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			dst := mc.Elem()
			return func(e *big.Int) *big.Int { p.PowGInt64Mont(dst, e.Int64()); return mc.FromMont(dst) }
		}},
		// Variable-base ladders. ExpMont's contract is a non-negative
		// exponent; callers reduce mod Q first, and so does the adapter.
		powPath{name: "ladder/ExpMont", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			bm, dst := mc.Elem(), mc.Elem()
			mc.ToMont(bm, base)
			return func(e *big.Int) *big.Int { mc.ExpMont(dst, bm, p.ReduceScalar(e)); return mc.FromMont(dst) }
		}},
		// Unreduced: the ladder itself is defined on any non-negative
		// exponent, so the rows at and past Q (and 2^64 at 64 bits) reach
		// its digit reader with one more word than Q has.
		powPath{name: "ladder/ExpMont/unreduced", ok: func(e *big.Int) bool { return e.Sign() >= 0 }, mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			bm, dst := mc.Elem(), mc.Elem()
			mc.ToMont(bm, base)
			return func(e *big.Int) *big.Int { mc.ExpMont(dst, bm, e); return mc.FromMont(dst) }
		}},
		powPath{name: "ladder/ExpMont/aliased", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			dst := mc.Elem()
			return func(e *big.Int) *big.Int {
				mc.ToMont(dst, base)
				mc.ExpMont(dst, dst, p.ReduceScalar(e))
				return mc.FromMont(dst)
			}
		}},
		powPath{name: "ladder/ExpMontScratch/reused-slab", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			bm, dst := mc.Elem(), mc.Elem()
			mc.ToMont(bm, base)
			var tab []uint64
			return func(e *big.Int) *big.Int {
				tab = mc.ExpMontScratch(dst, bm, p.ReduceScalar(e), tab)
				return mc.FromMont(dst)
			}
		}},
		// FEBO's × decryption: ExpMontScratch on a machine-integer
		// magnitude, unreduced, on the worker's reused slab.
		powPath{name: "ladder/uint64-exponent", ok: fitsUint64, mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
			mc := p.Mont()
			bm, dst := mc.Elem(), mc.Elem()
			mc.ToMont(bm, base)
			var tab []uint64
			return func(e *big.Int) *big.Int { tab = mc.ExpMontScratch(dst, bm, e, tab); return mc.FromMont(dst) }
		}},
	)
	return paths
}

// ephemeralPath drives the entry point for bases seen once, RecodeSigned +
// PowRecoded, over every shape of call: sets of 1, 2, 8 and 33 exponents
// (train_cnn's filter keys, train_mlp's hidden units, one past serve_dense's
// label rows) with the exponent under test last, raised at once to runs of
// 1, 2, 7, 8, 9 and 17 bases with the base under test in the middle. The
// other exponents are fixed full-width companions and the other bases are
// fixed companions too: 0, 1, p−1, a member plus p, a quadratic non-residue
// and random members. At 256 bits every call runs twice, with the lane
// kernel as selected and with it deselected, and the two must agree limb
// for limb on every base, members or not. Every member's results for the
// companion exponents, the base under test's included, must be Params.Exp's,
// so a digit, bucket or lane of one (base, exponent) leaking into another
// fails the path, and every shape must agree on the pair under test. One
// EphemeralExps is recycled throughout. Widths without a lane kernel (all
// but 256 bits) run once, over the base under test and one random member:
// past the slab layout, more bases or the second run would only repeat the
// scalar body.
func ephemeralPath() powPath {
	return powPath{name: "ephemeral/RecodeSigned+PowRecoded", mk: func(p *Params, base *big.Int) func(*big.Int) *big.Int {
		k := p.Mont().Limbs()
		rng := rand.New(rand.NewSource(33))
		member := func() *big.Int { return p.Exp(p.G, new(big.Int).Rand(rng, p.Q)) }
		// companions[c] is a base beside the one under test; members marks
		// the ones whose results Params.Exp predicts. A run of m bases
		// takes m−1 of them from companions[from:].
		companions := []*big.Int{
			new(big.Int), big.NewInt(1), new(big.Int).Sub(p.P, one),
			new(big.Int).Add(member(), p.P), new(big.Int).Sub(p.P, member()),
		}
		members := []bool{false, true, false, true, false}
		for len(companions) < 16 {
			companions = append(companions, member())
			members = append(members, true)
		}
		runs, from, hasLanes := []int{1, 2, 7, 8, 9, 17}, 0, p.Mont().lanes != nil
		if !hasLanes {
			runs, from = []int{2}, 5
		}
		exps := make([]*big.Int, 33)
		for i := range exps {
			exps[i] = new(big.Int).Rand(rng, p.Q)
			if i%2 == 1 {
				exps[i].Neg(exps[i])
			}
		}
		// want[c][i] is companion c raised to companion exponent i, and
		// wantBase[i] the base under test, in Montgomery form: a result is
		// right when pos = want·neg. Non-members have none.
		mc := p.Mont()
		powers := func(b *big.Int) []uint64 {
			w := make([]uint64, (len(exps)-1)*k)
			for i := 0; i < len(exps)-1; i++ {
				mc.ToMont(w[i*k:(i+1)*k], p.Exp(b, exps[i]))
			}
			return w
		}
		want := make([][]uint64, len(companions))
		for c, b := range companions {
			if members[c] {
				want[c] = powers(b)
			}
		}
		wantBase := powers(base)
		prod := mc.Elem()
		var x *EphemeralExps
		return func(e *big.Int) *big.Int {
			var got *big.Int
			for _, n := range []int{1, 2, 8, 33} {
				set := append(slices.Clone(exps[:n-1]), e)
				x = p.RecodeSigned(set, x)
				for _, m := range runs {
					// The base under test sits at m/2 among m−1 companions.
					bases := slices.Insert(slices.Clone(companions[from:from+m-1]), m/2, base)
					wants := slices.Insert(slices.Clone(want[from:from+m-1]), m/2, wantBase)
					pos, neg := make([]uint64, m*n*k), make([]uint64, m*n*k)
					x.PowRecoded(pos, neg, bases)
					if hasLanes {
						scalarPos, scalarNeg := make([]uint64, m*n*k), make([]uint64, m*n*k)
						withoutLanes(func() { x.PowRecoded(scalarPos, scalarNeg, bases) })
						if !slices.Equal(pos, scalarPos) || !slices.Equal(neg, scalarNeg) {
							panic(fmt.Sprintf("e=%v, %d exponents, %d bases: the lanes and the scalar body differ", e, n, m))
						}
					}
					for b, w := range wants {
						for i := 0; w != nil && i < n-1; i++ {
							at := (b*n + i) * k
							if mc.MulMont(prod, w[i*k:(i+1)*k], neg[at:at+k]); !slices.Equal(prod, pos[at:at+k]) {
								panic(fmt.Sprintf("e=%v: base %d of %d (under test at %d), exponent %d of %d: got %v", e, b, m, m/2, i, n, montQuotient(p, pos[at:at+k], neg[at:at+k])))
							}
						}
					}
					at := (m/2*n + n - 1) * k
					r := montQuotient(p, pos[at:at+k], neg[at:at+k])
					if got != nil && r.Cmp(got) != 0 {
						panic(fmt.Sprintf("e=%v: %d exponents over %d bases give %v, a smaller call %v", e, n, m, r, got))
					}
					got = r
				}
			}
			return got
		}
	}}
}

// montQuotient returns pos/neg, two Montgomery-domain halves, as an element.
func montQuotient(p *Params, pos, neg []uint64) *big.Int {
	mc := p.Mont()
	return p.Div(mc.FromMont(pos), mc.FromMont(neg))
}

// conformanceExponents is the one exponent set every path sees: the
// identities, the Q boundary from both sides, the machine-integer extremes,
// the edges of ExpMont's widest window (2^5 − 1, 2^5) and of a 64-bit word
// (2^64 − 1, 2^64), both edges of the dense slab and one step past them, and
// seeded random small-signed and full-width values (negative and ≥ Q
// included).
func conformanceExponents(p *Params, rng *rand.Rand) []*big.Int {
	q := p.Q
	word := new(big.Int).Lsh(one, 64)
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		new(big.Int).Sub(q, one), new(big.Int).Set(q), new(big.Int).Add(q, one),
		new(big.Int).Neg(q),
		new(big.Int).Add(new(big.Int).Lsh(q, 1), big.NewInt(5)),
		big.NewInt(1<<5 - 1), big.NewInt(1 << 5),
		new(big.Int).Sub(word, one), word,
		big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64),
		big.NewInt(DenseDefault), big.NewInt(-DenseDefault),
		big.NewInt(DenseDefault + 1), big.NewInt(-DenseDefault - 1),
	}
	for i := 0; i < 12; i++ {
		exps = append(exps, big.NewInt(rng.Int63n(2001)-1000))
	}
	for i := 0; i < 12; i++ {
		e := new(big.Int).Rand(rng, q)
		switch i % 3 {
		case 1:
			e.Neg(e)
		case 2:
			e.Add(e, q)
		}
		exps = append(exps, e)
	}
	return exps
}

var conformanceBits = []int{64, 256, 512}

// TestConformancePortableKernel runs the whole table again with the
// assembly 4-limb kernel deselected, so the Go mulMont4 every other
// architecture relies on stays covered on CPUs with ADX.
func TestConformancePortableKernel(t *testing.T) {
	if !useADX {
		t.Skip("the portable kernel is already the selected one")
	}
	usePortableKernel(t)
	t.Run("Pow", TestConformancePow)
	t.Run("Products", TestConformanceProducts)
	t.Run("IsElement", TestConformanceIsElement)
}

func TestConformancePow(t *testing.T) {
	for _, bits := range conformanceBits {
		p, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		exps := conformanceExponents(p, rng)
		bases := []struct {
			name string
			b    *big.Int
		}{
			{"generator", p.G},
			{"non-generator", p.Exp(p.G, new(big.Int).Rand(rng, p.Q))},
		}
		for _, base := range bases {
			want := make([]*big.Int, len(exps))
			for i, e := range exps {
				want[i] = p.Exp(base.b, e)
			}
			for _, path := range powPaths() {
				if path.genOnly && base.b != p.G {
					continue
				}
				path := path
				t.Run(fmt.Sprintf("bits=%d/%s/%s", bits, base.name, path.name), func(t *testing.T) {
					pow := path.mk(p, base.b)
					for i, e := range exps {
						if path.ok != nil && !path.ok(e) {
							continue
						}
						if got := pow(e); got.Cmp(want[i]) != 0 {
							t.Fatalf("e=%v: got %v, want %v", e, got, want[i])
						}
					}
				})
			}
		}
	}
}

// prodPath is one way of computing Π bases[i]^exps[i].
type prodPath struct {
	name string
	// int64Only marks paths whose exponents are machine integers.
	int64Only bool
	prod      func(p *Params, bases, exps []*big.Int) *big.Int
}

func toInt64s(exps []*big.Int) []int64 {
	out := make([]int64, len(exps))
	for i, e := range exps {
		out[i] = e.Int64()
	}
	return out
}

func prodPaths() []prodPath {
	return []prodPath{
		{name: "MultiExp", prod: func(p *Params, bases, exps []*big.Int) *big.Int {
			return p.MultiExp(bases, exps)
		}},
		{name: "MultiExpInt64MontParts", int64Only: true, prod: func(p *Params, bases, exps []*big.Int) *big.Int {
			mc := p.Mont()
			pos, neg := mc.Elem(), mc.Elem()
			p.MultiExpInt64MontParts(pos, neg, bases, toInt64s(exps), nil)
			return montQuotient(p, pos, neg)
		}},
		// Coordinate form over the full support: explicit zeros stay in
		// vals and must be dropped by the engine.
		{name: "MultiExpInt64SparseMontParts/full-support", int64Only: true, prod: func(p *Params, bases, exps []*big.Int) *big.Int {
			mc := p.Mont()
			pos, neg := mc.Elem(), mc.Elem()
			idx := make([]int, len(bases))
			for i := range idx {
				idx[i] = i
			}
			p.MultiExpInt64SparseMontParts(pos, neg, bases, idx, toInt64s(exps), nil)
			return montQuotient(p, pos, neg)
		}},
		// Coordinate form over the true support only.
		{name: "MultiExpInt64SparseMontParts/nonzero-support", int64Only: true, prod: func(p *Params, bases, exps []*big.Int) *big.Int {
			mc := p.Mont()
			pos, neg := mc.Elem(), mc.Elem()
			var idx []int
			var vals []int64
			for i, e := range exps {
				if e.Sign() != 0 {
					idx = append(idx, i)
					vals = append(vals, e.Int64())
				}
			}
			p.MultiExpInt64SparseMontParts(pos, neg, bases, idx, vals, nil)
			return montQuotient(p, pos, neg)
		}},
	}
}

// conformanceVectors is the shared exponent-vector set for the product
// paths. Every vector has the same length as bases.
func conformanceVectors(p *Params, rng *rand.Rand, n int) map[string][]*big.Int {
	fill := func(f func(i int) *big.Int) []*big.Int {
		v := make([]*big.Int, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	return map[string][]*big.Int{
		"all-zero":     fill(func(int) *big.Int { return new(big.Int) }),
		"all-negative": fill(func(int) *big.Int { return big.NewInt(-1 - rng.Int63n(1000)) }),
		"tiny-signed":  fill(func(int) *big.Int { return big.NewInt(rng.Int63n(21) - 10) }),
		"sparse-with-zeros": fill(func(i int) *big.Int {
			if i%4 != 1 {
				return new(big.Int)
			}
			return big.NewInt(rng.Int63n(2001) - 1000)
		}),
		"int64-extremes": fill(func(i int) *big.Int {
			switch i % 3 {
			case 0:
				return big.NewInt(math.MaxInt64)
			case 1:
				return big.NewInt(math.MinInt64)
			}
			return big.NewInt(rng.Int63() - rng.Int63())
		}),
		"full-width-signed": fill(func(i int) *big.Int {
			e := new(big.Int).Rand(rng, p.Q)
			switch i % 3 {
			case 1:
				e.Neg(e)
			case 2:
				e.Add(e, p.Q)
			}
			return e
		}),
		"multiples-of-Q": fill(func(i int) *big.Int {
			return new(big.Int).Mul(p.Q, big.NewInt(int64(i)-1))
		}),
	}
}

func TestConformanceProducts(t *testing.T) {
	for _, bits := range conformanceBits {
		p, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits) + 1))
		var scratch []uint64
		for _, n := range []int{0, 1, 13} {
			bases := make([]*big.Int, n)
			for i := range bases {
				bases[i] = p.Exp(p.G, new(big.Int).Rand(rng, p.Q))
			}
			for vname, exps := range conformanceVectors(p, rng, n) {
				want := big.NewInt(1)
				allInt64 := true
				for i := range bases {
					want = p.Mul(want, p.Exp(bases[i], exps[i]))
					allInt64 = allInt64 && exps[i].IsInt64()
				}
				for _, path := range prodPaths() {
					if path.int64Only && !allInt64 {
						continue
					}
					if got := path.prod(p, bases, exps); got.Cmp(want) != 0 {
						t.Fatalf("bits=%d n=%d %s over %s: got %v, want %v", bits, n, path.name, vname, got, want)
					}
				}
				if allInt64 {
					scratch = checkRowProducts(t, p, rng, bases, toInt64s(exps), scratch,
						fmt.Sprintf("bits=%d n=%d %s", bits, n, vname))
				}
			}
		}
	}
}

// checkRowProducts drives MultiExpInt64RowsMontParts, the many-rows entry
// point, with vec as row 0 of 1, 2 and 8 rows — the others are shuffles of
// vec, every second one negated, so no two rows share a result — over the
// identity support, a strided one (the rows are wider than the bases and the
// columns between carry exponents that must not be read) and the empty one,
// and requires Π Params.Exp for every row. scratch is threaded through every
// call, so each sees the slab a differently shaped one left behind.
func checkRowProducts(t *testing.T, p *Params, rng *rand.Rand, bases []*big.Int, vec []int64, scratch []uint64, label string) []uint64 {
	t.Helper()
	mc := p.Mont()
	k := mc.Limbs()
	supports := []struct {
		name    string
		bases   []*big.Int
		support func(t int) int
		width   int
	}{
		{"identity", bases, func(t int) int { return t }, len(vec)},
		{"strided", bases, func(t int) int { return 3*t + 1 }, 3*len(vec) + 2},
		{"empty", nil, nil, len(vec)},
	}
	for _, sup := range supports {
		support := make([]int, len(sup.bases))
		for i := range support {
			support[i] = sup.support(i)
		}
		for _, nRows := range []int{1, 2, 8} {
			rows := make([][]int64, nRows)
			for r := range rows {
				rows[r] = make([]int64, sup.width)
				for c := range rows[r] {
					rows[r][c] = rng.Int63() - rng.Int63() // off-support: never read
				}
				perm := rng.Perm(len(vec))
				for i := range support {
					v := vec[i]
					if r > 0 {
						v = vec[perm[i]]
					}
					if r%2 == 1 {
						v = -v // MinInt64 stays MinInt64: still an exponent
					}
					rows[r][support[i]] = v
				}
			}
			want := make([]*big.Int, nRows)
			for r, row := range rows {
				want[r] = big.NewInt(1)
				for i, b := range sup.bases {
					want[r] = p.Mul(want[r], p.Exp(b, big.NewInt(row[support[i]])))
				}
			}
			check := func(width string, eval func(pos, neg []uint64)) {
				t.Helper()
				pos, neg := make([]uint64, nRows*k), make([]uint64, nRows*k)
				eval(pos, neg)
				for r := range rows {
					got := p.Div(mc.FromMont(pos[r*k:(r+1)*k]), mc.FromMont(neg[r*k:(r+1)*k]))
					if got.Cmp(want[r]) != 0 {
						t.Fatalf("%s: MultiExpInt64RowsMontParts, %s support, %s, row %d of %d: got %v, want %v",
							label, sup.name, width, r, nRows, got, want[r])
					}
				}
			}
			// The entry point with its own rule, then every digit width the
			// rule can choose, pinned.
			check("rule", func(pos, neg []uint64) {
				scratch = p.MultiExpInt64RowsMontParts(pos, neg, [][]*big.Int{sup.bases}, support, rows, scratch)
			})
			for w := 2; w <= rowsMaxWindow; w++ {
				check(fmt.Sprintf("w=%d", w), func(pos, neg []uint64) {
					scratch = p.multiExpRows(pos, neg, [][]*big.Int{sup.bases}, support, rows, scratch, func(int, int) int { return w })
				})
			}
		}
	}
	return scratch
}

// TestConformanceRowColumns drives the many-rows form over runs of columns on
// one support, at every width: 1, 2, 7, 8, 9 and 17 columns against 1, 2, 8
// and 33 rows of W, under the rule (and where the lane kernel is present,
// under every digit width the rule can choose), on a strided support (the coordinates between carry weights that
// must not be read) and on the empty one. The weights hold 0, ±1, MaxInt64
// and MinInt64 among random ones of every magnitude, and coordinate 3 of the
// support has zero weight in every row. Beside random members, column 1
// carries p−1 and a non-residue, column 2 carries 1 and a member plus p, and
// column 5 carries 0. Every column but the fifth, whose zero makes a
// quotient 0/0, must give Π_t cols[c][t]^{w_i[support[t]]} by Params.Exp, a
// negative exponent as the inverse of its magnitude's power (exact for
// non-members too: nothing reduces the exponent mod Q). Where the lane
// kernel is present every call runs again with it deselected and both halves
// must agree limb for limb, column 5's included. One scratch slab is threaded
// through every call, lane and scalar, so each sees what a differently
// shaped one left behind.
func TestConformanceRowColumns(t *testing.T) {
	for _, bits := range conformanceBits {
		p, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		mc := p.Mont()
		k := mc.Limbs()
		lanes := mc.Lanes()
		rng := rand.New(rand.NewSource(int64(bits) + 3))
		const carried, zeroAt, zeroCol = 7, 3, 5
		support := make([]int, carried)
		for i := range support {
			support[i] = 3*i + 1
		}
		specials := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
		rows := make([][]int64, 33)
		for i := range rows {
			rows[i] = make([]int64, 3*carried+2)
			for c := range rows[i] {
				rows[i][c] = rng.Int63() - rng.Int63() // off-support: never read
			}
			for tt, at := range support {
				switch {
				case tt == zeroAt:
					rows[i][at] = 0
				case (i+tt)%3 == 0:
					rows[i][at] = specials[(i+tt)/3%len(specials)]
				default:
					rows[i][at] = rng.Int63n(int64(1)<<rng.Intn(63)+1) * (1 - 2*rng.Int63n(2))
				}
			}
		}
		member := func() *big.Int { return p.Exp(p.G, new(big.Int).Rand(rng, p.Q)) }
		cols := make([][]*big.Int, 17)
		for c := range cols {
			cols[c] = make([]*big.Int, carried)
			for tt := range cols[c] {
				cols[c][tt] = member()
			}
		}
		cols[1][0], cols[1][4] = new(big.Int).Sub(p.P, one), new(big.Int).Sub(p.P, member())
		cols[2][1], cols[2][6] = big.NewInt(1), new(big.Int).Add(member(), p.P)
		cols[zeroCol][2] = new(big.Int)
		// want[c][i] is column c's product under row i.
		want := make([][]*big.Int, len(cols))
		for c, bases := range cols {
			if c == zeroCol {
				continue
			}
			want[c] = make([]*big.Int, len(rows))
			for i, row := range rows {
				prod := big.NewInt(1)
				for tt, b := range bases {
					e := big.NewInt(row[support[tt]])
					if e.Sign() >= 0 {
						prod = p.Mul(prod, p.Exp(b, e))
					} else {
						prod = p.Div(prod, p.Exp(b, e.Neg(e)))
					}
				}
				want[c][i] = prod
			}
		}
		type window struct {
			name string
			f    func(bitLen, rows int) int
		}
		windows := []window{{"rule", rowsWindow}}
		for w := 2; lanes && w <= rowsMaxWindow; w++ {
			windows = append(windows, window{fmt.Sprintf("w=%d", w), func(int, int) int { return w }})
		}
		var scratch []uint64
		for _, m := range []int{1, 2, 7, 8, 9, 17} {
			for _, n := range []int{1, 2, 8, 33} {
				for _, win := range windows {
					for _, empty := range []bool{false, true} {
						sup, bases := support, cols[:m]
						if empty {
							sup, bases = nil, make([][]*big.Int, m)
						}
						label := fmt.Sprintf("bits=%d, %d columns × %d rows, %s, empty support %v", bits, m, n, win.name, empty)
						pos, neg := make([]uint64, m*n*k), make([]uint64, m*n*k)
						scratch = p.multiExpRows(pos, neg, bases, sup, rows[:n], scratch, win.f)
						if lanes {
							scalarPos, scalarNeg := make([]uint64, m*n*k), make([]uint64, m*n*k)
							withoutLanes(func() {
								scratch = p.multiExpRows(scalarPos, scalarNeg, bases, sup, rows[:n], scratch, win.f)
							})
							if !slices.Equal(pos, scalarPos) || !slices.Equal(neg, scalarNeg) {
								t.Fatalf("%s: the lanes and the scalar body differ", label)
							}
						}
						for c := range m {
							for i := range n {
								w := one
								if !empty {
									if c == zeroCol {
										continue
									}
									w = want[c][i]
								}
								at := (c*n + i) * k
								if got := montQuotient(p, pos[at:at+k], neg[at:at+k]); got.Cmp(w) != 0 {
									t.Fatalf("%s: column %d, row %d: got %v, want %v", label, c, i, got, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// isElementReference is the membership predicate's definition in math/big:
// range first, then a^Q = 1.
func isElementReference(p *Params, a *big.Int) bool {
	if a == nil || a.Sign() <= 0 || a.Cmp(p.P) >= 0 {
		return false
	}
	return new(big.Int).Exp(a, p.Q, p.P).Cmp(one) == 0
}

// TestConformanceIsElement pins the membership predicate, which computes a
// Legendre symbol, against its definition on members, non-residues and
// every boundary, at all three widths.
func TestConformanceIsElement(t *testing.T) {
	for _, bits := range conformanceBits {
		p, err := Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits) + 2))
		cases := map[string]*big.Int{
			"nil": nil, "0": new(big.Int), "1": big.NewInt(1), "-1": big.NewInt(-1),
			"P-1": new(big.Int).Sub(p.P, one), "P": new(big.Int).Set(p.P), "P+1": new(big.Int).Add(p.P, one),
			"G": p.G, "Q": p.Q, "2": big.NewInt(2),
		}
		for i := 0; i < 16; i++ {
			member := p.Exp(p.G, new(big.Int).Rand(rng, p.Q))
			cases[fmt.Sprintf("member %d", i)] = member
			// P ≡ 3 mod 4, so −1 is a non-residue and so is −member.
			cases[fmt.Sprintf("non-residue %d", i)] = new(big.Int).Sub(p.P, member)
			cases[fmt.Sprintf("random %d", i)] = new(big.Int).Rand(rng, p.P)
		}
		members := 0
		for name, a := range cases {
			want := isElementReference(p, a)
			if got := p.IsElement(a); got != want {
				t.Errorf("bits=%d: IsElement(%s = %v) = %v, want %v", bits, name, a, got, want)
			}
			if want {
				members++
			}
		}
		if members < 17 || members > len(cases)-19 {
			t.Errorf("bits=%d: %d members among %d cases: the table does not cover both answers", bits, members, len(cases))
		}
	}
}
