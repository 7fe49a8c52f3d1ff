package main

import (
	"context"
	"io"
	"log"
	"net"
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
	"cryptonn/internal/mnist"
	"cryptonn/internal/service"
	"cryptonn/internal/wire"
)

// TestRunAgainstThresholdCluster predicts with keys from a 2-of-3 cluster
// named as a comma-separated node list.
func TestRunAgainstThresholdCluster(t *testing.T) {
	_, nodes, err := authority.NewCluster(group.TestParams(), authority.AllowAll(), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	var addrs []string
	for _, nd := range nodes {
		srv, err := wire.NewNodeServer(nd, nil, wire.AuthorityServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		l := listen()
		go srv.Serve(ctx, l) //nolint:errcheck // returns net.ErrClosed on shutdown
		addrs = append(addrs, l.Addr().String())
	}
	cluster := strings.Join(addrs, ",")

	keys, err := wire.DialKeys(cluster, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer keys.Close()
	srv, err := service.New(keys, service.Config{Features: 49, Classes: 10, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	pl := listen()
	go srv.ServePredictions(ctx, pl) //nolint:errcheck // returns nil once ctx is cancelled

	err = run([]string{"-authority", cluster, "-server", pl.Addr().String(), "-features", "49", "-samples", "4"})
	if err != nil {
		t.Fatalf("run against %s: %v", cluster, err)
	}
}

// TestRunGenericFeatureCount predicts at a feature count that is not a
// pooled digit geometry (100 = 10×10 does not divide 28), where the inputs
// have no ground truth: the request carries no labels, so nothing indexes
// a class by the missing truth.
func TestRunGenericFeatureCount(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	as, err := wire.NewAuthorityServer(auth, nil)
	if err != nil {
		t.Fatal(err)
	}
	al, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go as.Serve(ctx, al) //nolint:errcheck // returns net.ErrClosed on shutdown
	srv, err := service.New(auth, service.Config{Features: 100, Classes: 10, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePredictions(ctx, pl) //nolint:errcheck // returns nil once ctx is cancelled

	err = run([]string{"-authority", al.Addr().String(), "-server", pl.Addr().String(), "-features", "100", "-samples", "3"})
	if err != nil {
		t.Fatalf("run -features 100: %v", err)
	}
}

func TestRunFailsWithoutAuthority(t *testing.T) {
	// Nothing listens on this address; the dial must fail cleanly.
	err := run([]string{"-authority", "127.0.0.1:1", "-server", "127.0.0.1:1"})
	if err == nil {
		t.Error("run succeeded with no authority")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSyntheticInputsDigitPath(t *testing.T) {
	x, truth, err := syntheticInputs(49, 5, 3) // 7×7 pools from 28×28
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 49 || x.Cols != 5 {
		t.Fatalf("shape %dx%d, want 49x5", x.Rows, x.Cols)
	}
	for i, c := range truth {
		if c < 0 || c >= mnist.Classes {
			t.Errorf("truth[%d] = %d out of range", i, c)
		}
	}
}

func TestSyntheticInputsGenericFallback(t *testing.T) {
	x, truth, err := syntheticInputs(13, 3, 1) // 13 is not a square
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 13 || x.Cols != 3 {
		t.Fatalf("shape %dx%d, want 13x3", x.Rows, x.Cols)
	}
	for i, c := range truth {
		if c != -1 {
			t.Errorf("truth[%d] = %d, want -1 (no ground truth)", i, c)
		}
	}
}

func TestIntSqrt(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 49: 7, 196: 14, 784: 28, 13: 0, 0: 0}
	for v, want := range cases {
		if got := intSqrt(v); got != want {
			t.Errorf("intSqrt(%d) = %d, want %d", v, got, want)
		}
	}
}
