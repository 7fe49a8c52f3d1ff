package wire

// Regression tests for the server and client hardening added alongside the
// threshold authority cluster: request-size limits, per-request panic
// containment, and bounded/cancellable client exchanges.

import (
	"context"
	"errors"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

func TestServerRejectsOversizedRequests(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAuthorityServerOpts(auth, nil, AuthorityServerOptions{MaxEta: 4})
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]int64, 5)
	cmts := make([]*big.Int, 5)
	for i := range cmts {
		cmts[i] = big.NewInt(1)
	}
	body := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	boBody := body(appendBORequest(nil, cmts, febo.OpAdd, wide))
	for _, req := range []struct {
		ftype byte
		body  []byte
	}{
		{bfFEIPPublic, body(appendU32(nil, 5))},
		{bfIPKeyBatch, body(appendScalarMatrix(nil, [][]int64{wide}))},
		{bfIPKeyBatch, body(appendScalarMatrix(nil, [][]int64{{1}, {1}, {1}, {1}, {1}}))},
		{bfIPKeySparse, body(appendSparseKeyRequest(nil, 5, []int{0}, []int64{1}))},
		{bfBOKeyBatch, boBody},
	} {
		if _, _, err := srv.safeDispatch(req.ftype, req.body); !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("%s: oversized request not rejected (err %v)", frameName(req.ftype), err)
		}
	}
	if st := srv.Stats(); st.Rejected != 5 || st.Served != 0 {
		t.Errorf("Rejected = %d, Served = %d, want 5, 0", st.Rejected, st.Served)
	}
	// At the limit is fine.
	if _, _, err := srv.safeDispatch(bfFEIPPublic, body(appendU32(nil, 4))); err != nil {
		t.Errorf("η at the cap rejected: %v", err)
	}
	// Node mode holds the partial kinds to the same limits.
	_, nodes, err := authority.NewCluster(group.TestParams(), authority.AllowAll(), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	nsrv, err := NewNodeServer(nodes[0], nil, AuthorityServerOptions{MaxEta: 4})
	if err != nil {
		t.Fatal(err)
	}
	for ftype, b := range map[byte][]byte{bfPartialIPKeyBatch: body(appendScalarMatrix(nil, [][]int64{wide})), bfPartialBOKeyBatch: boBody} {
		if _, _, err := nsrv.safeDispatch(ftype, b); !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("%s: oversized request not rejected (err %v)", frameName(ftype), err)
		}
	}
}

func TestSafeDispatchContainsPanics(t *testing.T) {
	// A server with neither authority nor node: any dispatch panics on a
	// nil dereference, standing in for an unexpected bug in a key path.
	srv := &AuthorityServer{lim: anyGroup}
	srv.init("authority", nil)
	_, _, err := srv.safeDispatch(bfFEBOPublic, nil)
	if err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panicking dispatch answered %v", err)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}

// wedgedServer completes the handshake and reads requests but never
// answers.
func wedgedServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if acceptHello(conn) == nil {
					_, _ = io.Copy(io.Discard, conn)
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestRemoteKeyServiceTimeout(t *testing.T) {
	addr := wedgedServer(t)
	svc, err := DialKeyServiceOpts(addr, KeyClientOptions{Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	start := time.Now()
	if _, err := svc.IPKey([]int64{1, 2}); !IsTimeout(err) {
		t.Fatalf("want timeout against wedged authority, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

func TestRemoteKeyServiceContextCancel(t *testing.T) {
	addr := wedgedServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := DialKeyServiceOpts(addr, KeyClientOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := svc.IPKey([]int64{3})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancellation did not unblock the exchange")
	}
	wg.Wait()

	// Future exchanges fail fast on the dead context.
	if _, err := svc.IPKey([]int64{3}); err == nil {
		t.Fatal("exchange succeeded on a cancelled context")
	}
}
