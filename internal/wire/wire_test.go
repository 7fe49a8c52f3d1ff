package wire_test

import (
	"context"
	"math/big"
	"math/rand"
	"net"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// startAuthority spins up an authority server on loopback and returns its
// address plus a cleanup-registered shutdown.
func startAuthority(t *testing.T, policy authority.Policy) (string, *authority.Authority) {
	t.Helper()
	auth, err := authority.New(group.TestParams(), policy)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewAuthorityServer(auth, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("authority server did not shut down")
		}
	})
	return l.Addr().String(), auth
}

func TestRemoteKeyServiceEndToEnd(t *testing.T) {
	addr, _ := startAuthority(t, authority.AllowAll())
	ks, err := wire.DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ks.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// The remote key service must behave exactly like the local authority:
	// run a full secure dot-product through it.
	solver, err := dlog.NewSolver(group.TestParams(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithSolver(solver)
	x := [][]int64{{1, 2}, {3, 4}}
	w := [][]int64{{5, 6}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	z, err := eng.Dot(enc, w, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if z[0][0] != 5+18 || z[0][1] != 10+24 {
		t.Errorf("secure dot over TCP = %v", z)
	}

	// Element-wise path exercises BOKey + FEBOPublic.
	z2, err := eng.Elementwise(enc, febo.OpAdd, x, securemat.ComputeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if z2[1][1] != 8 {
		t.Errorf("secure add over TCP = %v", z2)
	}
}

func TestRemoteKeyServiceCachesPublicKeys(t *testing.T) {
	addr, _ := startAuthority(t, authority.AllowAll())
	ks, err := wire.DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ks.Close() }()
	a, err := ks.FEIPPublic(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ks.FEIPPublic(3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second fetch should hit the cache")
	}
	pa, err := ks.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ks.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("FEBO key should be cached")
	}
}

func TestPolicyErrorsCrossTheWire(t *testing.T) {
	addr, _ := startAuthority(t, authority.Policy{ // nothing permitted
		BasicOps: map[febo.Op]bool{},
	})
	ks, err := wire.DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ks.Close() }()
	if _, err := ks.IPKey([]int64{1}); err == nil {
		t.Error("policy rejection must propagate")
	}
	if _, err := ks.BOKey(big.NewInt(2), febo.OpAdd, 1); err == nil {
		t.Error("policy rejection must propagate for BO keys")
	}
}

func TestBOKeyOverWire(t *testing.T) {
	addr, _ := startAuthority(t, authority.AllowAll())
	ks, err := wire.DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ks.Close() }()
	solver, err := dlog.NewSolver(group.TestParams(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := ks.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := ks.BOKey(ct.Cmt, febo.OpMul, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := febo.Decrypt(pk, fk, ct, febo.OpMul, 3, solver)
	if err != nil {
		t.Fatal(err)
	}
	if got != 51 {
		t.Errorf("remote-keyed FEBO decrypt = %d, want 51", got)
	}
}

func TestTrainingServerCollectsBatchesFromDistributedClients(t *testing.T) {
	// Distributed data sources (§III-A): two clients submit encrypted
	// batches under the same authority; the server trains on the union.
	addr, auth := startAuthority(t, authority.AllowAll())
	_ = addr

	ts := wire.NewTrainingServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(ctx, l)
	}()
	defer func() {
		cancel()
		<-done
	}()

	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	makeBatch := func(seed int64) *core.EncryptedBatch {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.NewDense(4, 3)
		x.RandInit(rng, 1)
		y := tensor.NewDense(3, 3)
		for j := 0; j < 3; j++ {
			y.Set(rng.Intn(3), j, 1)
		}
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	for clientID := 0; clientID < 2; clientID++ {
		conn, err := wire.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SubmitBatches([]*core.EncryptedBatch{makeBatch(int64(clientID))}); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}

	batches := ts.Batches()
	if len(batches) != 2 {
		t.Fatalf("collected %d batches, want 2", len(batches))
	}
	// The received ciphertext batches must actually train a model.
	solver, err := dlog.NewSolver(group.TestParams(), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewMLP(4, 3, []int{5}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng.WithSolver(solver), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.1, 0)
	for _, b := range batches {
		if _, err := trainer.TrainBatch(b, opt); err != nil {
			t.Fatalf("training on received batch: %v", err)
		}
	}
}

func TestServerShutdownUnblocksClients(t *testing.T) {
	addr, _ := startAuthority(t, authority.AllowAll())
	ks, err := wire.DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch once to prove liveness, then the cleanup-registered shutdown
	// must not hang (verified by startAuthority's cleanup timeout).
	if _, err := ks.FEIPPublic(2); err != nil {
		t.Fatal(err)
	}
	if err := ks.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.IPKey([]int64{1, 2}); err == nil {
		t.Error("request on closed connection should fail")
	}
}

func TestConvBatchSubmission(t *testing.T) {
	_, auth := startAuthority(t, authority.AllowAll())
	ts := wire.NewTrainingServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(ctx, l)
	}()
	defer func() {
		cancel()
		<-done
	}()

	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := tensor.NewDense(36, 2)
	x.RandInit(rng, 0.5)
	y := tensor.NewDense(3, 2)
	y.Set(0, 0, 1)
	y.Set(1, 1, 1)
	enc, err := client.EncryptConvBatch(x, y, 1, 6, 6, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SubmitConvBatches([]*core.EncryptedConvBatch{enc}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	got := ts.ConvBatches()
	if len(got) != 1 {
		t.Fatalf("collected %d conv batches", len(got))
	}
	if got[0].NumWindows() != 36 || got[0].WindowLen() != 9 {
		t.Error("conv batch geometry mangled in transit")
	}
}
