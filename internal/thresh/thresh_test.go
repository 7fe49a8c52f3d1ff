package thresh

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

func testParams(t *testing.T) *group.Params {
	t.Helper()
	p, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatalf("embedded group: %v", err)
	}
	return p
}

// combinations yields all size-k index subsets of [0, n).
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

func TestSplitCombineAllQuorums(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(1))
	for _, tn := range [][2]int{{1, 1}, {2, 3}, {3, 5}, {5, 7}} {
		th, n := tn[0], tn[1]
		secret, err := params.RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Split(params, secret, th, n, rnd)
		if err != nil {
			t.Fatalf("Split(%d,%d): %v", th, n, err)
		}
		for _, combo := range combinations(n, th) {
			sub := make([]Share, th)
			for i, c := range combo {
				sub[i] = shares[c]
			}
			got, err := Combine(params, sub)
			if err != nil {
				t.Fatalf("Combine %v: %v", combo, err)
			}
			if got.Cmp(secret) != 0 {
				t.Fatalf("t=%d n=%d quorum %v: got %v want %v", th, n, combo, got, secret)
			}
		}
	}
}

func TestCombineRejectsMalformed(t *testing.T) {
	params := testParams(t)
	if _, err := Split(params, big.NewInt(5), 4, 3, nil); err == nil {
		t.Fatal("Split with t > n must fail")
	}
	if _, err := Combine(params, []Share{{X: 1, V: big.NewInt(1)}, {X: 1, V: big.NewInt(2)}}); err == nil {
		t.Fatal("Combine with duplicate indices must fail")
	}
	if _, err := Combine(params, []Share{{X: 0, V: big.NewInt(1)}}); err == nil {
		t.Fatal("Combine with index 0 must fail")
	}
}

// TestSubThresholdHiding is the statistical arm of the perfect-hiding
// property: the marginal distribution of any T−1 shares is identical
// whatever the secret is. We split two maximally different secrets many
// times and check that a fixed share coordinate lands uniformly across
// value quartiles of Z_Q for both.
func TestSubThresholdHiding(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(2))
	const rounds = 400
	q := params.Q
	quarter := new(big.Int).Rsh(q, 2)
	secrets := []*big.Int{big.NewInt(0), new(big.Int).Sub(q, big.NewInt(1))}
	for si, secret := range secrets {
		var buckets [4]int
		for r := 0; r < rounds; r++ {
			shares, err := Split(params, secret, 3, 5, rnd)
			if err != nil {
				t.Fatal(err)
			}
			// Two shares are below threshold for t=3; inspect share 1.
			b := new(big.Int).Div(shares[0].V, quarter).Int64()
			if b > 3 {
				b = 3 // V in the top sliver rounds into bucket 3
			}
			buckets[b]++
		}
		for b, count := range buckets {
			// Expected rounds/4 = 100; a secret-dependent bias would
			// concentrate mass. Bounds are ±6σ-generous to keep the test
			// deterministic-grade stable.
			if count < 40 || count > 160 {
				t.Fatalf("secret %d: share-value bucket %d has %d/%d hits — sub-threshold shares leak", si, b, count, rounds)
			}
		}
	}
}

// TestLagrangeLinearity pins the identity the partial-key path relies on:
// combining per-node linear functions of the shares equals the same
// linear function of the secret.
func TestLagrangeLinearity(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(3))
	secret, _ := params.RandScalar(rnd)
	shares, err := Split(params, secret, 3, 5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	w := big.NewInt(-12345)
	// Per-node partial: w·share_j; combined should be w·secret mod Q.
	xs := []int64{2, 4, 5}
	lambdas, err := Lambda(params, xs)
	if err != nil {
		t.Fatal(err)
	}
	partials := []*big.Int{
		params.ReduceScalar(new(big.Int).Mul(w, shares[1].V)),
		params.ReduceScalar(new(big.Int).Mul(w, shares[3].V)),
		params.ReduceScalar(new(big.Int).Mul(w, shares[4].V)),
	}
	got := CombineScalars(params, lambdas, partials)
	want := params.ReduceScalar(new(big.Int).Mul(w, secret))
	if got.Cmp(want) != 0 {
		t.Fatalf("combined linear partial %v != %v", got, want)
	}
}

func TestDealingFeldmanVerify(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(4))
	d, err := Deal(params, 3, 5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range d.SubShares {
		if !feldmanHolds(params, d.Commits, sh) {
			t.Fatalf("honest sub-share %d fails the Feldman check", sh.X)
		}
	}
	bad := Share{X: 2, V: new(big.Int).Add(d.SubShares[1].V, big.NewInt(1))}
	if feldmanHolds(params, d.Commits, bad) {
		t.Fatal("tampered sub-share passes the Feldman check")
	}
}

// feldmanHolds checks a sub-share against a dealing's coefficient
// commitments: g^V == Π commits[k]^{X^k}, the evaluation of the committed
// polynomial in the exponent.
func feldmanHolds(params *group.Params, commits []*big.Int, sh Share) bool {
	exps := make([]*big.Int, len(commits))
	pow := big.NewInt(1)
	for k := range commits {
		exps[k] = new(big.Int).Set(pow)
		pow.Mod(pow.Mul(pow, big.NewInt(sh.X)), params.Q)
	}
	return params.PowG(sh.V).Cmp(params.MultiExp(commits, exps)) == 0
}

func TestRunDKG(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(5))
	res, err := RunDKG(params, 3, 5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	// Every T-quorum must reconstruct the same secret, and that secret
	// must match the joint public key (the dealer-free secret).
	var joint *big.Int
	for _, combo := range combinations(5, 3) {
		sub := make([]Share, 3)
		for i, c := range combo {
			sub[i] = res.Shares[c]
		}
		s, err := Combine(params, sub)
		if err != nil {
			t.Fatal(err)
		}
		if joint == nil {
			joint = s
		} else if joint.Cmp(s) != 0 {
			t.Fatalf("quorum %v reconstructs a different secret", combo)
		}
	}
	if params.PowG(joint).Cmp(res.Pub) != 0 {
		t.Fatal("joint public key does not match the reconstructed secret")
	}
	for j, ps := range res.PubShares {
		if params.PowG(res.Shares[j].V).Cmp(ps) != 0 {
			t.Fatalf("public share %d does not commit to share %d", j, j)
		}
	}
}

func TestCombineElements(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(6))
	secret, _ := params.RandScalar(rnd)
	shares, err := Split(params, secret, 3, 5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := params.RandScalar(rnd)
	cmt := params.PowG(base) // a group element to exponentiate
	xs := []int64{1, 3, 5}
	lambdas, err := Lambda(params, xs)
	if err != nil {
		t.Fatal(err)
	}
	elems := []*big.Int{
		params.Exp(cmt, shares[0].V),
		params.Exp(cmt, shares[2].V),
		params.Exp(cmt, shares[4].V),
	}
	got, err := CombineElementsBatch(params, xs, [][]*big.Int{elems[:1], elems[1:2], elems[2:]})
	if err != nil {
		t.Fatal(err)
	}
	if want := params.Exp(cmt, secret); got[0].Cmp(want) != 0 {
		t.Fatalf("Π P_j^λ_j = %v, want cmt^s = %v", got[0], want)
	}
	if want := combineOracle(params, lambdas, [][]*big.Int{elems[:1], elems[1:2], elems[2:]}); got[0].Cmp(want[0]) != 0 {
		t.Fatalf("batch combine %v, Lagrange oracle %v", got[0], want[0])
	}
	single, err := CombineElements(params, lambdas, elems)
	if err != nil {
		t.Fatal(err)
	}
	if single.Cmp(got[0]) != 0 {
		t.Fatalf("single-value combine %v, batch %v", single, got[0])
	}
}

// combineOracle is the combination CombineElementsBatch replaced: for every
// value, Π_j parts[j][v]^{λ_j} with the coefficients reduced mod Q
// (Lambda) and one full-width ExpMont per partial.
func combineOracle(params *group.Params, lambdas []*big.Int, parts [][]*big.Int) []*big.Int {
	mc := params.Mont()
	acc, term := mc.Elem(), mc.Elem()
	out := make([]*big.Int, len(parts[0]))
	for v := range out {
		mc.SetOne(acc)
		for j, l := range lambdas {
			mc.ToMont(term, parts[j][v])
			mc.ExpMont(term, term, l)
			mc.MulMont(acc, acc, term)
		}
		out[v] = mc.FromMont(acc)
	}
	return out
}

// permutations yields every ordering of idx.
func permutations(idx []int) [][]int {
	if len(idx) <= 1 {
		return [][]int{append([]int(nil), idx...)}
	}
	var out [][]int
	for i := range idx {
		rest := append(append([]int(nil), idx[:i]...), idx[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{idx[i]}, p...))
		}
	}
	return out
}

// TestCombineElementsBatchMatchesLambda pins the integer-numerator
// combination to the Lagrange oracle, byte for byte, for every T-subset of
// 1-of-3, 2-of-4, 3-of-5 and 5-of-5 in every arrival order (so {3,1,2} as
// well as {1,2,3}), over partial keys of several commitments. The sets
// beyond {1, …, T} — {1,2,4}, {2,4,5} and the rest — have D ≠ 1 and run
// the D⁻¹ exponentiation; the test checks that both kinds occur.
func TestCombineElementsBatchMatchesLambda(t *testing.T) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(int64(bits)))
		cmts := make([]*big.Int, 5)
		for v := range cmts {
			e, _ := params.RandScalar(rnd)
			cmts[v] = params.PowG(e)
		}
		for _, tn := range [][2]int{{1, 3}, {2, 4}, {3, 5}, {5, 5}} {
			tt, n := tn[0], tn[1]
			secret, _ := params.RandScalar(rnd)
			shares, err := Split(params, secret, tt, n, rnd)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*big.Int, len(cmts))
			for v, c := range cmts {
				want[v] = params.Exp(c, secret)
			}
			kinds := map[bool]int{}
			for _, subset := range combinations(n, tt) {
				for _, order := range permutations(subset) {
					xs := make([]int64, tt)
					parts := make([][]*big.Int, tt)
					for i, c := range order {
						xs[i] = shares[c].X
						parts[i] = make([]*big.Int, len(cmts))
						for v, cm := range cmts {
							parts[i][v] = params.Exp(cm, shares[c].V)
						}
					}
					_, den, err := lagrangeInts(xs)
					if err != nil {
						t.Fatal(err)
					}
					kinds[den.Cmp(big.NewInt(1)) == 0]++
					lambdas, err := Lambda(params, xs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := CombineElementsBatch(params, xs, parts)
					if err != nil {
						t.Fatalf("bits=%d xs=%v: %v", bits, xs, err)
					}
					oracle := combineOracle(params, lambdas, parts)
					for v := range cmts {
						if got[v].Cmp(oracle[v]) != 0 || got[v].Cmp(want[v]) != 0 {
							t.Fatalf("bits=%d xs=%v value %d: batch %v, oracle %v, cmt^s %v", bits, xs, v, got[v], oracle[v], want[v])
						}
					}
				}
			}
			if tt > 1 && tt < n && (kinds[true] == 0 || kinds[false] == 0) {
				t.Fatalf("%d-of-%d: %d index sets with D = 1, %d with D ≠ 1; want both", tt, n, kinds[true], kinds[false])
			}
		}
	}
}

func TestLagrangeInts(t *testing.T) {
	for _, tc := range []struct {
		xs   []int64
		nums []int64
		den  int64
	}{
		{[]int64{7}, []int64{1}, 1},
		{[]int64{1, 2, 3}, []int64{3, -3, 1}, 1},
		{[]int64{3, 1, 2}, []int64{1, 3, -3}, 1},
		{[]int64{1, 2, 3, 4, 5}, []int64{5, -10, 10, -5, 1}, 1},
		{[]int64{1, 2, 4}, []int64{8, -6, 1}, 3},
		{[]int64{2, 4, 5}, []int64{10, -15, 8}, 3},
		{[]int64{1, 3}, []int64{3, -1}, 2},
	} {
		nums, den, err := lagrangeInts(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if den.Int64() != tc.den {
			t.Errorf("xs=%v: D = %v, want %d", tc.xs, den, tc.den)
		}
		for j, n := range nums {
			if n.Int64() != tc.nums[j] {
				t.Errorf("xs=%v: n_%d = %v, want %d", tc.xs, j, n, tc.nums[j])
			}
		}
	}
}

func TestCombineElementsBatchRejectsMalformed(t *testing.T) {
	params := testParams(t)
	g := params.G
	for name, tc := range map[string]struct {
		xs    []int64
		parts [][]*big.Int
	}{
		"no indices":       {nil, nil},
		"index 0":          {[]int64{0, 1}, [][]*big.Int{{g}, {g}}},
		"duplicate index":  {[]int64{2, 2}, [][]*big.Int{{g}, {g}}},
		"missing vector":   {[]int64{1, 2}, [][]*big.Int{{g}}},
		"ragged vectors":   {[]int64{1, 2}, [][]*big.Int{{g, g}, {g}}},
		"nil partial":      {[]int64{1, 2}, [][]*big.Int{{g}, {nil}}},
		"zero in negative": {[]int64{1, 2}, [][]*big.Int{{g}, {new(big.Int)}}},
	} {
		if _, err := CombineElementsBatch(params, tc.xs, tc.parts); !errors.Is(err, ErrShare) {
			t.Errorf("%s: err = %v, want ErrShare", name, err)
		}
	}
}

func TestDLEQ(t *testing.T) {
	params := testParams(t)
	rnd := rand.New(rand.NewSource(7))
	secret, _ := params.RandScalar(rnd)
	pub := params.PowG(secret)
	var bases, outs []*big.Int
	for i := 0; i < 8; i++ {
		e, _ := params.RandScalar(rnd)
		b := params.PowG(e)
		bases = append(bases, b)
		outs = append(outs, params.Exp(b, secret))
	}
	proof, err := ProveEqBatch(params, secret, pub, bases, outs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEqBatch(params, pub, bases, outs, proof); err != nil {
		t.Fatalf("honest batch proof rejected: %v", err)
	}
	// Single-element batch.
	p1, err := ProveEqBatch(params, secret, pub, bases[:1], outs[:1], rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEqBatch(params, pub, bases[:1], outs[:1], p1); err != nil {
		t.Fatalf("single proof rejected: %v", err)
	}

	// One corrupted output in the batch must be caught by the RLC fold.
	tampered := append([]*big.Int(nil), outs...)
	tampered[3] = params.Mul(tampered[3], params.G)
	if err := VerifyEqBatch(params, pub, bases, tampered, proof); err == nil {
		t.Fatal("corrupted output accepted")
	}
	// Swapping two outputs preserves the multiset but must still fail.
	swapped := append([]*big.Int(nil), outs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := VerifyEqBatch(params, pub, bases, swapped, proof); err == nil {
		t.Fatal("swapped outputs accepted")
	}
	// Tampered proof scalars must fail.
	badZ := &EqProof{C: proof.C, Z: new(big.Int).Add(proof.Z, big.NewInt(1))}
	if err := VerifyEqBatch(params, pub, bases, outs, badZ); err == nil {
		t.Fatal("tampered z accepted")
	}
	// A proof bound to another share must not transfer.
	other, _ := params.RandScalar(rnd)
	if err := VerifyEqBatch(params, params.PowG(other), bases, outs, proof); err == nil {
		t.Fatal("proof accepted under a different share commitment")
	}
}

// dleqBatch returns a random share, its commitment and n (base, base^share)
// pairs.
func dleqBatch(t testing.TB, params *group.Params, n int, rnd *rand.Rand) (secret, pub *big.Int, bases, outs []*big.Int) {
	secret, err := params.RandScalar(rnd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e, err := params.RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		b := params.PowG(e)
		bases = append(bases, b)
		outs = append(outs, params.Exp(b, secret))
	}
	return secret, params.PowG(secret), bases, outs
}

// proveEqBatchTwoFolds is the prover as it stood before the output fold
// became one exponentiation: both sides folded by multi-exponentiation.
// It is the oracle the one-fold prover must match byte for byte.
func proveEqBatchTwoFolds(params *group.Params, secret, pub *big.Int, bases, outs []*big.Int, r *rand.Rand) (*EqProof, error) {
	b, p := foldBatch(params, pub, bases, outs)
	k, err := params.RandScalar(r)
	if err != nil {
		return nil, err
	}
	t1 := params.PowG(k)
	t2 := params.Exp(b, k)
	c := challenge(params, pub, b, p, t1, t2)
	z := new(big.Int).Mul(c, secret)
	z.Add(z, k)
	return &EqProof{C: c, Z: z.Mod(z, params.Q)}, nil
}

// TestProveEqBatchMatchesTwoFolds: for a fixed nonce stream, the proof is
// the one the two-multi-exponentiation prover builds, at the test width and
// at the paper's, for one element and for a partial-key batch of 80.
func TestProveEqBatchMatchesTwoFolds(t *testing.T) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 80} {
			secret, pub, bases, outs := dleqBatch(t, params, n, rand.New(rand.NewSource(int64(bits+n))))
			got, err := ProveEqBatch(params, secret, pub, bases, outs, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := proveEqBatchTwoFolds(params, secret, pub, bases, outs, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			if got.C.Cmp(want.C) != 0 || got.Z.Cmp(want.Z) != 0 {
				t.Fatalf("bits=%d n=%d: proof (%v, %v), two-fold oracle (%v, %v)", bits, n, got.C, got.Z, want.C, want.Z)
			}
			if err := VerifyEqBatch(params, pub, bases, outs, got); err != nil {
				t.Fatalf("bits=%d n=%d: honest proof rejected: %v", bits, n, err)
			}
		}
	}
}

// TestVerifyEqBatchRejectsNonCanonical: C and Z must lie in [0, Q). Z + Q
// and C + Q satisfy the verification equations exactly like Z and C, so
// without the range check a proof would be malleable on the wire.
func TestVerifyEqBatchRejectsNonCanonical(t *testing.T) {
	params := testParams(t)
	secret, pub, bases, outs := dleqBatch(t, params, 8, rand.New(rand.NewSource(10)))
	proof, err := ProveEqBatch(params, secret, pub, bases, outs, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEqBatch(params, pub, bases, outs, proof); err != nil {
		t.Fatalf("canonical proof rejected: %v", err)
	}
	plusQ := func(x *big.Int) *big.Int { return new(big.Int).Add(x, params.Q) }
	for name, bad := range map[string]*EqProof{
		"Z+Q":  {C: proof.C, Z: plusQ(proof.Z)},
		"C+Q":  {C: plusQ(proof.C), Z: proof.Z},
		"Z-Q":  {C: proof.C, Z: new(big.Int).Sub(proof.Z, params.Q)},
		"-C":   {C: new(big.Int).Neg(proof.C), Z: proof.Z},
		"both": {C: plusQ(proof.C), Z: plusQ(proof.Z)},
	} {
		if err := VerifyEqBatch(params, pub, bases, outs, bad); !errors.Is(err, ErrProof) {
			t.Errorf("%s: VerifyEqBatch = %v, want ErrProof", name, err)
		}
	}
}

// TestVerifyEqBatchRejectsNegatedOutput: P − out is not a group element,
// and under an even RLC coefficient it folds to the same element as out, so
// only the membership check on every output stands between it and a
// passing proof.
func TestVerifyEqBatchRejectsNegatedOutput(t *testing.T) {
	params := testParams(t)
	secret, pub, bases, outs := dleqBatch(t, params, 8, rand.New(rand.NewSource(12)))
	proof, err := ProveEqBatch(params, secret, pub, bases, outs, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		bad := append([]*big.Int(nil), outs...)
		bad[i] = new(big.Int).Sub(params.P, outs[i])
		if err := VerifyEqBatch(params, pub, bases, bad, proof); !errors.Is(err, ErrProof) {
			t.Fatalf("output %d replaced by P - out: VerifyEqBatch = %v, want ErrProof", i, err)
		}
	}
}

// Split shares secret into n Shamir shares with reconstruction threshold
// t: any t shares recover the secret (Combine), any t−1 are statistically
// independent of it. Randomness is drawn from r (crypto/rand when nil).
func Split(params *group.Params, secret *big.Int, t, n int, r io.Reader) ([]Share, error) {
	if err := CheckTN(t, n); err != nil {
		return nil, err
	}
	if secret == nil {
		return nil, fmt.Errorf("%w: nil secret", ErrShare)
	}
	poly, err := randomPolynomial(params, secret, t, r)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, n)
	for j := 1; j <= n; j++ {
		shares[j-1] = Share{X: int64(j), V: poly.eval(params, int64(j))}
	}
	return shares, nil
}

// Combine reconstructs the shared secret from any t (or more) shares by
// Lagrange interpolation at x = 0.
func Combine(params *group.Params, shares []Share) (*big.Int, error) {
	xs := make([]int64, len(shares))
	for i, sh := range shares {
		if sh.V == nil {
			return nil, fmt.Errorf("%w: share %d has no value", ErrShare, i)
		}
		xs[i] = sh.X
	}
	lambdas, err := Lambda(params, xs)
	if err != nil {
		return nil, err
	}
	vals := make([]*big.Int, len(shares))
	for i, sh := range shares {
		vals[i] = sh.V
	}
	return CombineScalars(params, lambdas, vals), nil
}

// TestTranscriptDigestsPinned pins the Fiat–Shamir derivations bit for bit:
// the RLC coefficients of a fixed seeded 80-element batch and the DLEQ
// challenge over its first pair, at the test width and at the paper's, are
// hashed into one digest per width. A zero integer rides in the challenge,
// so the empty encoding of 0 is pinned too. Any change to how the
// transcript encodes an integer or how coefficients are drawn moves the
// digest, and with it every proof a deployed node has issued.
func TestTranscriptDigestsPinned(t *testing.T) {
	want := map[int]string{
		group.TestBits:  "9a1652b07ec746b4ebd50e94cd4c6fcc7342717bd4225e49b0db19c0864d0053",
		group.PaperBits: "3f10411ca056cc5dc9ac7a4ceb08f61f0a91615a68cea5ca2f8d5c958191b13d",
	}
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		_, pub, bases, outs := dleqBatch(t, params, 80, rand.New(rand.NewSource(int64(bits))))
		h := sha256.New()
		for _, c := range rlcCoeffs(pub, bases, outs) {
			h.Write(c.Bytes())
			h.Write([]byte{'|'})
		}
		h.Write(challenge(params, pub, bases[0], outs[0], new(big.Int), bases[1]).Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != want[bits] {
			t.Errorf("bits=%d: transcript digest %s, want %s", bits, got, want[bits])
		}
	}
}

// TestProofsPinned pins seeded proofs bit for bit: ProveEqBatch over fixed
// batches of one and of 80 pairs, with a fixed nonce stream, at the test
// width and at the paper's, hashed into one digest per width. How the
// prover computes B^s, B^k or the fold may change; the proof it returns for
// a given nonce may not.
func TestProofsPinned(t *testing.T) {
	want := map[int]string{
		group.TestBits:  "ddcc3ea392d78003ef10a7f611f45380b7abc3628567a03b370f5cacf087f838",
		group.PaperBits: "d1d1ebdaa77653cc5a26b8667cd7b65f7feca7214fbf2e5c6f82022270e1dd1a",
	}
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		params, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, n := range []int{1, 80} {
			secret, pub, bases, outs := dleqBatch(t, params, n, rand.New(rand.NewSource(int64(bits+n))))
			proof, err := ProveEqBatch(params, secret, pub, bases, outs, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(proof.C.Bytes())
			h.Write([]byte{'|'})
			h.Write(proof.Z.Bytes())
			h.Write([]byte{'|'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[bits] {
			t.Errorf("bits=%d: proof digest %s, want %s", bits, got, want[bits])
		}
	}
}
