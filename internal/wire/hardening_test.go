package wire

// Regression tests for the server and client hardening added alongside the
// threshold authority cluster: request-size limits, per-request panic
// containment, and bounded/cancellable client exchanges.

import (
	"errors"
	"io"
	"math/big"
	"net"
	"strings"
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
	srv, err := NewAuthorityServer(auth, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.lim.maxEta = 4
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
	nsrv, err := NewNodeServer(nodes[0], nil, AuthorityServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nsrv.lim.maxEta = 4
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
	svc, err := DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.timeout = 80 * time.Millisecond
	start := time.Now()
	if _, err := svc.IPKey([]int64{1, 2}); !IsTimeout(err) {
		t.Fatalf("want timeout against wedged authority, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// TestDialKeyServiceHoldsExchangesToTheDeadline runs one exchange against
// a wedged authority at the deployed deadline: it must fail as a timeout
// once exchangeTimeout has passed, not block for ever.
func TestDialKeyServiceHoldsExchangesToTheDeadline(t *testing.T) {
	addr := wedgedServer(t)
	svc, err := DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := svc.FEBOPublic()
		errc <- err
	}()
	select {
	case err := <-errc:
		if !IsTimeout(err) {
			t.Fatalf("want timeout against wedged authority, got %v", err)
		}
		if d := time.Since(start); d < exchangeTimeout {
			t.Fatalf("exchange gave up after %v, before the %v deadline", d, exchangeTimeout)
		}
	case <-time.After(exchangeTimeout + 5*time.Second):
		t.Fatalf("exchange still blocked %v after its %v deadline", 5*time.Second, exchangeTimeout)
	}
}

// TestRemoteKeyServiceCloseFailsInFlight: Close is the one cancellation
// path. It unblocks an exchange waiting on a wedged authority, and later
// exchanges fail fast.
func TestRemoteKeyServiceCloseFailsInFlight(t *testing.T) {
	addr := wedgedServer(t)
	svc, err := DialKeyService(addr)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := svc.IPKey([]int64{3})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || IsTimeout(err) {
			t.Fatalf("want a closed-connection error, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not unblock the exchange")
	}

	if _, err := svc.IPKey([]int64{3}); err == nil {
		t.Fatal("exchange succeeded on a closed service")
	}
}
