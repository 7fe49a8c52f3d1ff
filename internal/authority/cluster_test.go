package authority

import (
	"bytes"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
)

// PartialIPKey is the one-vector form of PartialIPKeyBatch the tests read
// more easily; no program derives partial keys one at a time.
func (nd *Node) PartialIPKey(y []int64) (*big.Int, error) {
	ks, err := nd.PartialIPKeyBatch([][]int64{y})
	if err != nil {
		return nil, err
	}
	return ks[0], nil
}

func clusterParams(t *testing.T) *group.Params {
	t.Helper()
	p, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatalf("embedded group: %v", err)
	}
	return p
}

func newTestCluster(t *testing.T, th, n int, seed int64) (*Cluster, []*Node) {
	t.Helper()
	c, nodes, err := NewCluster(clusterParams(t), AllowAll(), th, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewCluster(%d,%d): %v", th, n, err)
	}
	return c, nodes
}

// TestClusterIPKeyCombines pins the heart of the threshold design: any T
// nodes' partial inner-product keys Lagrange-combine to a function key
// that decrypts a ciphertext under the cluster's joint public key.
func TestClusterIPKeyCombines(t *testing.T) {
	_, nodes := newTestCluster(t, 3, 5, 1)
	params := nodes[0].Params()
	y := []int64{3, -2, 7, 0, 5}
	x := []int64{1, 4, -2, 9, 3}

	mpk, err := nodes[0].FEIPPublic(len(y))
	if err != nil {
		t.Fatal(err)
	}
	// Every node must hand out the identical joint key.
	for _, nd := range nodes[1:] {
		m2, err := nd.FEIPPublic(len(y))
		if err != nil {
			t.Fatal(err)
		}
		for i := range mpk.H {
			if mpk.H[i].Cmp(m2.H[i]) != 0 {
				t.Fatalf("node %d disagrees on joint h_%d", nd.Index(), i)
			}
		}
	}

	quorums := [][]int{{0, 1, 2}, {0, 2, 4}, {1, 3, 4}, {2, 3, 4}}
	var firstKey *big.Int
	for _, quorum := range quorums {
		xs := make([]int64, len(quorum))
		partials := make([]*big.Int, len(quorum))
		for i, j := range quorum {
			xs[i] = nodes[j].Index()
			p, err := nodes[j].PartialIPKey(y)
			if err != nil {
				t.Fatalf("node %d partial: %v", j+1, err)
			}
			partials[i] = p
		}
		lambdas, err := thresh.Lambda(params, xs)
		if err != nil {
			t.Fatal(err)
		}
		k := thresh.CombineScalars(params, lambdas, partials)
		if firstKey == nil {
			firstKey = k
		} else if firstKey.Cmp(k) != 0 {
			t.Fatalf("quorum %v combines to a different key", quorum)
		}
	}

	// The combined key must verify against the joint public key
	// (g^k == Π h_i^{y_i}) and actually decrypt.
	lhs := params.PowG(firstKey)
	rhs := big.NewInt(1)
	for i, h := range mpk.H {
		rhs = params.Mul(rhs, params.Exp(h, big.NewInt(y[i])))
	}
	if lhs.Cmp(rhs) != 0 {
		t.Fatal("combined key does not match the joint public key")
	}
	ct, err := feip.Encrypt(mpk, x, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := dlog.NewSolver(params, 200)
	if err != nil {
		t.Fatal(err)
	}
	got, err := feip.Decrypt(mpk, ct, &feip.FunctionKey{K: firstKey}, y, solver)
	if err != nil {
		t.Fatalf("decrypt under combined key: %v", err)
	}
	var want int64
	for i := range x {
		want += x[i] * y[i]
	}
	if got != want {
		t.Fatalf("decrypted ⟨x,y⟩ = %d, want %d", got, want)
	}
}

// TestClusterBOKeyCombines pins the FEBO side: partials cmt^{s^(j)}
// combine via CombineElementsBatch to cmt^s (quorum {1, 3, 5}, so
// D = 3 ≠ 1), the client-side op transform
// reproduces febo.KeyDerive exactly, and each partial's DLEQ proof
// verifies against the node's public share commitment.
func TestClusterBOKeyCombines(t *testing.T) {
	c, nodes := newTestCluster(t, 3, 5, 3)
	params := nodes[0].Params()
	// Reconstruct the joint secret (test-only: same package) so every op's
	// combined key can be compared against the direct derivation.
	lambdas, err := thresh.Lambda(params, []int64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	jointSecret := thresh.CombineScalars(params, lambdas, []*big.Int{c.febo.shares[0], c.febo.shares[2], c.febo.shares[4]})
	pk, err := nodes[0].FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	pubShares := nodes[0].FEBOSharePublics()

	rnd := rand.New(rand.NewSource(4))
	const x1, x2 = 17, 5
	ct, err := febo.Encrypt(pk, x1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	boSolver, err := dlog.NewSolver(params, 200)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []febo.Op{febo.OpAdd, febo.OpSub, febo.OpMul, febo.OpDiv} {
		quorum := []int{0, 2, 4}
		xs := make([]int64, len(quorum))
		partials := make([][]*big.Int, len(quorum))
		for i, j := range quorum {
			ps, proof, err := nodes[j].PartialBOKeyBatch([]*big.Int{ct.Cmt}, op, []int64{x2})
			if err != nil {
				t.Fatalf("node %d partial (%s): %v", j+1, op, err)
			}
			if err := thresh.VerifyEqBatch(params, pubShares[j], []*big.Int{ct.Cmt}, ps, proof); err != nil {
				t.Fatalf("node %d DLEQ (%s): %v", j+1, op, err)
			}
			xs[i] = nodes[j].Index()
			partials[i] = ps
		}
		cmtS, err := thresh.CombineElementsBatch(params, xs, partials)
		if err != nil {
			t.Fatal(err)
		}
		// Client-side op transform on the combined cmt^s.
		fk, err := febo.CompleteKey(params, cmtS[0], op, x2)
		if err != nil {
			t.Fatal(err)
		}
		k := fk.K
		// The combined+transformed key must equal febo.KeyDerive under the
		// reconstructed joint secret for every op.
		direct, err := febo.KeyDerive(params, &febo.SecretKey{S: jointSecret}, ct.Cmt, op, x2)
		if err != nil {
			t.Fatal(err)
		}
		if k.Cmp(direct.K) != 0 {
			t.Fatalf("%s: combined key differs from direct derivation", op)
		}
		if op == febo.OpDiv {
			continue // 17/5 has no small-integer exponent to decrypt to.
		}
		got, err := febo.Decrypt(pk, &febo.FunctionKey{K: k}, ct, op, x2, boSolver)
		if err != nil {
			t.Fatalf("decrypt %s under combined key: %v", op, err)
		}
		var want int64
		switch op {
		case febo.OpAdd:
			want = x1 + x2
		case febo.OpSub:
			want = x1 - x2
		case febo.OpMul:
			want = x1 * x2
		}
		if got != want {
			t.Fatalf("%s: decrypted %d, want %d", op, got, want)
		}
	}
}

// TestClusterPolicyAndValidation covers the request-side guard rails.
func TestClusterPolicyAndValidation(t *testing.T) {
	params := clusterParams(t)
	locked := Policy{} // permits nothing
	_, nodes, err := NewCluster(params, locked, 2, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].PartialIPKey([]int64{1, 2}); err == nil {
		t.Fatal("policy-denied partial IP key issued")
	}
	if _, _, err := nodes[0].PartialBOKeyBatch([]*big.Int{params.G}, febo.OpMul, []int64{2}); err == nil {
		t.Fatal("policy-denied partial BO key issued")
	}

	_, open, err := NewCluster(params, AllowAll(), 2, 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := open[0].PartialBOKeyBatch([]*big.Int{big.NewInt(0)}, febo.OpMul, []int64{2}); err == nil {
		t.Fatal("non-group commitment accepted")
	}
	if _, _, err := open[0].PartialBOKeyBatch([]*big.Int{params.G}, febo.OpDiv, []int64{0}); err == nil {
		t.Fatal("zero divisor accepted")
	}
	if _, err := open[0].PartialIPKeyBatch([][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, _, err := NewCluster(params, AllowAll(), 4, 3, nil); err == nil {
		t.Fatal("t > n cluster constructed")
	}
}

// TestDivisionByQRefusedBeforeAnyExponentiation pins the one division
// check: y = Q is non-zero as an int64 but has no inverse mod Q, and the
// single authority and a cluster node refuse it alike, through FEBO's one
// table, before any commitment is raised. Commitment 0 is not a group
// element, so a refusal that named it would mean the per-commitment work
// had started.
func TestDivisionByQRefusedBeforeAnyExponentiation(t *testing.T) {
	params := group.TestParams()
	if !params.Q.IsInt64() {
		t.Fatalf("Q = %v does not fit an int64", params.Q)
	}
	q := params.Q.Int64()
	cmts := []*big.Int{big.NewInt(0), params.G}
	for _, ys := range [][]int64{{1, q}, {1, -q}} {
		auth, err := New(params, AllowAll())
		if err != nil {
			t.Fatal(err)
		}
		_, err = auth.BOKeyBatch(cmts, febo.OpDiv, ys)
		if err == nil || !strings.Contains(err.Error(), "no inverse mod Q") {
			t.Errorf("authority ÷ %d: err = %v, want the operand refused", ys[1], err)
		}
		if _, err := auth.BOKey(params.G, febo.OpDiv, ys[1]); err == nil {
			t.Errorf("authority issued a ÷ %d key", ys[1])
		}
		if got := auth.Stats().BOKeys; got != 0 {
			t.Errorf("authority counted %d keys", got)
		}
		_, nodes, err := NewCluster(params, AllowAll(), 2, 3, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = nodes[0].PartialBOKeyBatch(cmts, febo.OpDiv, ys)
		if err == nil || !strings.Contains(err.Error(), "no inverse mod Q") {
			t.Errorf("node ÷ %d: err = %v, want the operand refused", ys[1], err)
		}
		if _, _, err := nodes[0].PartialBOKeyBatch(cmts[1:], febo.OpDiv, ys[1:]); err == nil {
			t.Errorf("node signed a ÷ %d partial", ys[1])
		}
		if got := nodes[0].Stats().BOKeys; got != 0 {
			t.Errorf("node counted %d partials", got)
		}
	}
}

// TestShareFileRoundTrip pins the provisioning path: a detached node
// loaded from a gob share file serves the same partials as its in-process
// counterpart, and refuses unprovisioned dimensions and tampered files.
func TestShareFileRoundTrip(t *testing.T) {
	c, nodes := newTestCluster(t, 3, 5, 7)
	const eta = 4
	y := []int64{2, -1, 3, 8}

	f, err := c.ShareFile(2, []int{eta})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadNodeShareFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	detached, err := LoadNode(decoded, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	if detached.Index() != 2 || detached.Threshold() != 3 || detached.ClusterSize() != 5 {
		t.Fatalf("detached node identity = (%d,%d,%d)", detached.Index(), detached.Threshold(), detached.ClusterSize())
	}

	want, err := nodes[1].PartialIPKey(y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := detached.PartialIPKey(y)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("detached node derives a different partial than its cluster twin")
	}

	// FEBO partials must agree too (and carry valid proofs).
	params := nodes[0].Params()
	cmt := params.PowGInt64(123)
	wantBO, _, err := nodes[1].PartialBOKeyBatch([]*big.Int{cmt}, febo.OpMul, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	gotBO, proof, err := detached.PartialBOKeyBatch([]*big.Int{cmt}, febo.OpMul, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if gotBO[0].Cmp(wantBO[0]) != 0 {
		t.Fatal("detached FEBO partial differs")
	}
	pubShares := detached.FEBOSharePublics()
	if err := thresh.VerifyEqBatch(params, pubShares[1], []*big.Int{cmt}, gotBO, proof); err != nil {
		t.Fatalf("detached DLEQ: %v", err)
	}

	// Unprovisioned dimension → typed error, no silent DKG.
	if _, err := detached.PartialIPKey([]int64{1, 2, 3}); err == nil {
		t.Fatal("detached node served an unprovisioned dimension")
	}

	// A share that does not match its public commitment must be rejected
	// at load time.
	bad := *decoded
	bad.FEBOShare = new(big.Int).Add(decoded.FEBOShare, big.NewInt(1))
	if _, err := LoadNode(&bad, AllowAll()); err == nil {
		t.Fatal("tampered share file loaded")
	}

	// The FEIP public share vectors travel in the file and are served to
	// clients, which check this node's partials against its own vector.
	wantPubs, err := nodes[1].FEIPSharePublics(eta)
	if err != nil {
		t.Fatal(err)
	}
	gotPubs, err := detached.FEIPSharePublics(eta)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wantPubs {
		for i := range wantPubs[j] {
			if gotPubs[j][i].Cmp(wantPubs[j][i]) != 0 {
				t.Fatalf("detached node serves a different share vector %d", j+1)
			}
		}
	}
	// They are held to the FEBO commitments' standard: N vectors of η
	// group elements, and the node's own vector must be g^{share}.
	prov := decoded.FEIP[eta]
	own := decoded.Index - 1
	for _, row := range []struct {
		name   string
		tamper func(pubs [][]*big.Int) [][]*big.Int
	}{
		{"the last vector missing", func(p [][]*big.Int) [][]*big.Int { return p[:len(p)-1] }},
		{"a vector one element short", func(p [][]*big.Int) [][]*big.Int { p[0] = p[0][1:]; return p }},
		{"a non-element", func(p [][]*big.Int) [][]*big.Int { p[4][2] = new(big.Int).Sub(params.P, big.NewInt(1)); return p }},
		{"own vector is not g^share", func(p [][]*big.Int) [][]*big.Int { p[own][3] = params.Mul(p[own][3], params.G); return p }},
	} {
		pubs := make([][]*big.Int, len(prov.SharePubs))
		for j := range pubs {
			pubs[j] = append([]*big.Int(nil), prov.SharePubs[j]...)
		}
		bad := *decoded
		bad.FEIP = map[int]FEIPProvision{eta: {H: prov.H, SharePubs: row.tamper(pubs), Shares: prov.Shares}}
		if _, err := LoadNode(&bad, AllowAll()); err == nil {
			t.Errorf("share file with %s loaded", row.name)
		}
	}
}

// TestClusterStats checks partial issuance is counted.
func TestClusterStats(t *testing.T) {
	_, nodes := newTestCluster(t, 2, 3, 8)
	if _, err := nodes[0].PartialIPKeyBatch([][]int64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	cmt := nodes[0].Params().PowGInt64(7)
	if _, _, err := nodes[0].PartialBOKeyBatch([]*big.Int{cmt}, febo.OpAdd, []int64{9}); err != nil {
		t.Fatal(err)
	}
	st := nodes[0].Stats()
	if st.IPKeys != 2 || st.IPKeyScalars != 6 || st.BOKeys != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if other := nodes[1].Stats(); other.IPKeys != 0 {
		t.Fatalf("node 2 stats leaked: %+v", other)
	}
}
