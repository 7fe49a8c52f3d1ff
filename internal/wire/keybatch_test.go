package wire

import (
	"context"
	"net"
	"testing"

	"cryptonn/internal/authority"
	"math/big"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// startAuthority spins up an authority server and returns a connected key
// service.
func startAuthority(t *testing.T, policy authority.Policy) (*authority.Authority, *RemoteKeyService) {
	t.Helper()
	addr, auth := serveAuthority(t, policy)
	ks, err := DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ks.Close() })
	return auth, ks
}

// serveAuthority spins up an authority server over the test group and
// returns its address.
func serveAuthority(t *testing.T, policy authority.Policy) (string, *authority.Authority) {
	t.Helper()
	auth, err := authority.New(group.TestParams(), policy)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAuthorityServer(auth, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	t.Cleanup(func() { cancel(); <-done })
	return l.Addr().String(), auth
}

func TestIPKeyBatchOverWireMatchesIndividual(t *testing.T) {
	auth, ks := startAuthority(t, authority.AllowAll())
	ys := [][]int64{{1, -2, 3}, {0, 5, -6}, {7, 8, 9}, {-1, -1, -1}}
	batch, err := ks.IPKeyBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ys) {
		t.Fatalf("batch returned %d keys, want %d", len(batch), len(ys))
	}
	for i, y := range ys {
		// The authority's derivation is deterministic per (msk, y):
		// deriving the same key in-process must agree with the wire
		// batch.
		direct, err := auth.IPKey(y)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].K.Cmp(direct.K) != 0 {
			t.Errorf("wire batch key %d differs from direct derivation", i)
		}
	}
}

func TestIPKeyBatchKeysDecryptOverWire(t *testing.T) {
	_, ks := startAuthority(t, authority.AllowAll())
	x := []int64{4, -1, 2, 6}
	w := [][]int64{{1, 0, 0, 0}, {1, 1, 1, 1}, {-2, 3, 0, 1}}

	mpk, err := ks.FEIPPublic(len(x))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := feip.Encrypt(mpk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := dlog.NewSolver(mpk.Params, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Engine.DotKeys should automatically take the batch path over the
	// wire on its first (cache-missing) derivation.
	eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range w {
		got, err := feip.Decrypt(mpk, ct, keys[i], y, solver)
		if err != nil {
			t.Fatalf("decrypt row %d: %v", i, err)
		}
		var want int64
		for k := range x {
			want += x[k] * y[k]
		}
		if got != want {
			t.Errorf("row %d: got %d, want %d", i, got, want)
		}
	}
}

func TestIPKeyBatchEmptyRejected(t *testing.T) {
	_, ks := startAuthority(t, authority.AllowAll())
	if _, err := ks.IPKeyBatch(nil); err == nil {
		t.Error("empty batch accepted client-side")
	}
	// Bypass the client-side check to exercise the server-side one.
	if _, err := ks.exchange(bfIPKeyBatch, bfKeyBatch, func(b []byte) ([]byte, error) { return appendScalarMatrix(b, nil) }); err == nil {
		t.Error("server accepted empty batch")
	}
}

func TestIPKeyBatchPolicyDenied(t *testing.T) {
	_, ks := startAuthority(t, authority.Policy{}) // nothing permitted
	if _, err := ks.IPKeyBatch([][]int64{{1, 2}}); err == nil {
		t.Error("policy-denied batch succeeded over the wire")
	}
}

func TestBOKeyBatchOverWireDecrypts(t *testing.T) {
	_, ks := startAuthority(t, authority.AllowAll())
	pk, err := ks.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	xs := []int64{12, -7, 30}
	ys := []int64{5, 5, -2}
	cts := make([]*febo.Ciphertext, len(xs))
	cmts := make([]*big.Int, len(xs))
	for i, x := range xs {
		ct, err := febo.Encrypt(pk, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		cmts[i] = ct.Cmt
	}
	keys, err := ks.BOKeyBatch(cmts, febo.OpAdd, ys)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := dlog.NewSolver(pk.Params, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		got, err := febo.Decrypt(pk, keys[i], cts[i], febo.OpAdd, ys[i], solver)
		if err != nil {
			t.Fatalf("decrypt %d: %v", i, err)
		}
		if got != xs[i]+ys[i] {
			t.Errorf("element %d: %d, want %d", i, got, xs[i]+ys[i])
		}
	}
}

func TestBOKeyBatchValidation(t *testing.T) {
	_, ks := startAuthority(t, authority.AllowAll())
	if _, err := ks.BOKeyBatch(nil, febo.OpAdd, nil); err == nil {
		t.Error("empty BO batch accepted")
	}
	if _, err := ks.BOKeyBatch([]*big.Int{big.NewInt(2)}, febo.OpAdd, []int64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Server-side check, bypassing the client-side one: the frame cannot
	// even express mismatched lengths, so a commitment without its scalar
	// is a truncated body.
	short, err := appendBORequest(nil, []*big.Int{big.NewInt(2)}, febo.OpAdd, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.exchange(bfBOKeyBatch, bfKeyBatch, rawBody(short[:len(short)-1])); err == nil {
		t.Error("server accepted a commitment without its scalar")
	}
}

// TestElementwiseKeysUseBatchPath verifies securemat.ElementwiseKeys over
// a networked key service takes a single round trip (batch) and its keys
// decrypt correctly end to end.
func TestElementwiseKeysUseBatchPath(t *testing.T) {
	auth, ks := startAuthority(t, authority.AllowAll())
	eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := [][]int64{{4, -3}, {10, 0}}
	y := [][]int64{{2, 2}, {-5, 7}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := auth.Stats().BOKeys
	tripsBefore := ks.RoundTrips()
	keys, err := eng.ElementwiseKeys(enc, securemat.ElementwiseMul, y)
	if err != nil {
		t.Fatal(err)
	}
	if issued := auth.Stats().BOKeys - before; issued != 4 {
		t.Errorf("authority issued %d keys, want 4", issued)
	}
	if trips := ks.RoundTrips() - tripsBefore; trips != 1 {
		t.Errorf("key derivation took %d round trips, want 1 (batched)", trips)
	}
	solver, err := dlog.NewSolver(auth.Params(), 101)
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.WithSolver(solver).SecureElementwise(enc, keys, securemat.ElementwiseMul, y,
		securemat.ComputeOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		for j := range x[i] {
			if z[i][j] != x[i][j]*y[i][j] {
				t.Errorf("z[%d][%d] = %d, want %d", i, j, z[i][j], x[i][j]*y[i][j])
			}
		}
	}
}
