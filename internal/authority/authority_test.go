package authority_test

import (
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

func newAuth(t *testing.T, p authority.Policy) *authority.Authority {
	t.Helper()
	auth, err := authority.New(group.TestParams(), p)
	if err != nil {
		t.Fatal(err)
	}
	return auth
}

func TestNewValidation(t *testing.T) {
	if _, err := authority.New(nil, authority.AllowAll()); err == nil {
		t.Error("nil params accepted")
	}
	bad := &group.Params{}
	if _, err := authority.New(bad, authority.AllowAll()); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestFEIPKeysArePerDimensionAndCached(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	k4a, err := auth.FEIPPublic(4)
	if err != nil {
		t.Fatal(err)
	}
	k4b, err := auth.FEIPPublic(4)
	if err != nil {
		t.Fatal(err)
	}
	if k4a != k4b {
		t.Error("same dimension returned distinct key objects (cache miss)")
	}
	k7, err := auth.FEIPPublic(7)
	if err != nil {
		t.Fatal(err)
	}
	if k7.Eta() != 7 || k4a.Eta() != 4 {
		t.Errorf("dimensions %d/%d, want 7/4", k7.Eta(), k4a.Eta())
	}
	if _, err := auth.FEIPPublic(0); err == nil {
		t.Error("dimension 0 accepted")
	}
}

func TestPolicyDeniesDotProduct(t *testing.T) {
	auth := newAuth(t, authority.Policy{BasicOps: map[febo.Op]bool{febo.OpAdd: true}})
	if _, err := auth.IPKey([]int64{1, 2}); !errors.Is(err, authority.ErrNotPermitted) {
		t.Errorf("IPKey error = %v, want ErrNotPermitted", err)
	}
	if _, err := auth.IPKeyBatch([][]int64{{1, 2}}); !errors.Is(err, authority.ErrNotPermitted) {
		t.Errorf("IPKeyBatch error = %v, want ErrNotPermitted", err)
	}
}

func TestPolicyDeniesPerOp(t *testing.T) {
	auth := newAuth(t, authority.Policy{
		DotProduct: true,
		BasicOps:   map[febo.Op]bool{febo.OpAdd: true},
	})
	pk, err := auth.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.BOKey(ct.Cmt, febo.OpAdd, 3); err != nil {
		t.Errorf("permitted op denied: %v", err)
	}
	for _, op := range []febo.Op{febo.OpSub, febo.OpMul, febo.OpDiv} {
		if _, err := auth.BOKey(ct.Cmt, op, 3); !errors.Is(err, authority.ErrNotPermitted) {
			t.Errorf("%s error = %v, want ErrNotPermitted", op, err)
		}
	}
}

func TestIPKeyBatchMatchesIndividualKeys(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	ys := [][]int64{{1, 2, 3}, {-4, 5, -6}, {7, 0, 9}}
	batch, err := auth.IPKeyBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ys) {
		t.Fatalf("batch size %d, want %d", len(batch), len(ys))
	}
	for i, y := range ys {
		single, err := auth.IPKey(y)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].K.Cmp(single.K) != 0 {
			t.Errorf("batch key %d differs from individual derivation", i)
		}
	}
	if _, err := auth.IPKeyBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestIPKeyBatchKeysDecrypt(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	x := []int64{3, -2, 8}
	ys := [][]int64{{1, 1, 1}, {2, 0, -1}}
	mpk, err := auth.FEIPPublic(len(x))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := feip.Encrypt(mpk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := dlog.NewSolver(group.TestParams(), 100)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := auth.IPKeyBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ys {
		got, err := feip.Decrypt(mpk, ct, keys[i], y, solver)
		if err != nil {
			t.Fatalf("decrypt with batch key %d: %v", i, err)
		}
		var want int64
		for k := range x {
			want += x[k] * y[k]
		}
		if got != want {
			t.Errorf("key %d: ⟨x,y⟩ = %d, want %d", i, got, want)
		}
	}
}

func TestStatsCountIssuedKeys(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	if s := auth.Stats(); s.IPKeys != 0 || s.BOKeys != 0 {
		t.Fatalf("fresh stats %+v", s)
	}
	if _, err := auth.IPKey([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := auth.IPKeyBatch([][]int64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	pk, err := auth.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.BOKey(ct.Cmt, febo.OpAdd, 2); err != nil {
		t.Fatal(err)
	}
	s := auth.Stats()
	if s.IPKeys != 3 {
		t.Errorf("IPKeys = %d, want 3", s.IPKeys)
	}
	if s.IPKeyScalars != 3+2+2 {
		t.Errorf("IPKeyScalars = %d, want 7", s.IPKeyScalars)
	}
	if s.BOKeys != 1 {
		t.Errorf("BOKeys = %d, want 1", s.BOKeys)
	}
	auth.ResetStats()
	if s := auth.Stats(); s.IPKeys != 0 || s.BOKeys != 0 || s.IPKeyScalars != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

// TestConcurrentKeyIssuance exercises the authority from many goroutines;
// run with -race to verify the locking discipline.
func TestConcurrentKeyIssuance(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := auth.IPKey([]int64{int64(g), int64(i)}); err != nil {
					errCh <- err
					return
				}
				if _, err := auth.FEIPPublic(2 + g%3); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s := auth.Stats(); s.IPKeys != 32 {
		t.Errorf("IPKeys = %d, want 32", s.IPKeys)
	}
}

// TestKeyBatchesOnEveryCore pins what changed when the batch entry points
// started handling policy and counters once per batch and BOKeyBatch started
// deriving on every core: a batch large enough to be spread over several
// workers returns the keys the one-key entry points return, in order; the
// counters move once per batch by the exact totals; and when two elements of
// a batch are bad, the lowest one is named and nothing is counted.
func TestKeyBatchesOnEveryCore(t *testing.T) {
	auth := newAuth(t, authority.AllowAll())
	const n, eta = 64, 48
	ys := make([][]int64, n)
	for i := range ys {
		ys[i] = make([]int64, eta)
		for j := range ys[i] {
			ys[i][j] = int64((i*31+j*7)%201 - 100)
		}
	}
	pk, err := auth.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	cmts := make([]*big.Int, n)
	scalars := make([]int64, n)
	for i := range cmts {
		ct, err := febo.Encrypt(pk, int64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		cmts[i], scalars[i] = ct.Cmt, int64(i-n/2)
	}

	ipKeys, err := auth.IPKeyBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	boKeys, err := auth.BOKeyBatch(cmts, febo.OpSub, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if s := auth.Stats(); s.IPKeys != n || s.IPKeyScalars != n*eta || s.BOKeys != n {
		t.Errorf("after one batch of each: %+v, want %d keys, %d scalars, %d keys", s, n, n*eta, n)
	}
	for i := range ys {
		ip, err := auth.IPKey(ys[i])
		if err != nil || ip.K.Cmp(ipKeys[i].K) != 0 {
			t.Fatalf("inner-product key %d of the batch differs from IPKey's (%v)", i, err)
		}
		bo, err := auth.BOKey(cmts[i], febo.OpSub, scalars[i])
		if err != nil || bo.K.Cmp(boKeys[i].K) != 0 {
			t.Fatalf("basic-op key %d of the batch differs from BOKey's (%v)", i, err)
		}
	}

	auth.ResetStats()
	badCmts := append([]*big.Int(nil), cmts...)
	badCmts[9], badCmts[40] = big.NewInt(0), big.NewInt(0) // not group elements
	badYs := append([][]int64(nil), ys...)
	badYs[9], badYs[40] = nil, nil // no FEIP dimension 0
	for round := 0; round < 20; round++ {
		_, err := auth.BOKeyBatch(badCmts, febo.OpSub, scalars)
		if err == nil || !strings.Contains(err.Error(), "authority: batch element 9:") {
			t.Fatalf("round %d: BOKeyBatch err = %v, want element 9 named", round, err)
		}
		_, err = auth.IPKeyBatch(badYs)
		if err == nil || !strings.Contains(err.Error(), "authority: batch vector 9:") {
			t.Fatalf("round %d: IPKeyBatch err = %v, want vector 9 named", round, err)
		}
	}
	if s := auth.Stats(); s != (authority.Stats{}) {
		t.Errorf("failed batches were counted: %+v", s)
	}
}
