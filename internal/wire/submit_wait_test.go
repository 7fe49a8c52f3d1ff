package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// submitOne encrypts a tiny batch and submits it as one client session.
func submitOne(t *testing.T, addr string, auth *authority.Authority) {
	t.Helper()
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(3, 2)
	y := tensor.NewDense(2, 2)
	y.Set(0, 0, 1)
	y.Set(1, 1, 1)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SubmitBatches([]*core.EncryptedBatch{enc}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitSubmissionsCountsDoneFrames(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrainingServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = ts.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()

	if n := ts.Submissions(); n != 0 {
		t.Fatalf("initial submissions = %d, want 0", n)
	}

	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	waitErr := make(chan error, 1)
	go func() { waitErr <- ts.WaitSubmissions(waitCtx, 2) }()

	submitOne(t, l.Addr().String(), auth)
	submitOne(t, l.Addr().String(), auth)

	if err := <-waitErr; err != nil {
		t.Fatalf("WaitSubmissions: %v", err)
	}
	if n := ts.Submissions(); n != 2 {
		t.Errorf("submissions = %d, want 2", n)
	}
	if got := len(ts.Batches()); got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
}

func TestWaitSubmissionsAlreadySatisfied(t *testing.T) {
	ts := NewTrainingServer(nil)
	// Zero submissions needed: returns immediately even with no server.
	if err := ts.WaitSubmissions(context.Background(), 0); err != nil {
		t.Fatalf("WaitSubmissions(0): %v", err)
	}
}

func TestWaitSubmissionsHonoursCancellation(t *testing.T) {
	ts := NewTrainingServer(nil)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- ts.WaitSubmissions(ctx, 1) }()
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("WaitSubmissions returned nil after cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitSubmissions did not return after cancellation")
	}
}

// The collector closes the server the moment the expected number of done
// frames has arrived (service.Run does); the client that sent the last one
// must still get its ack, not an EOF.
func TestLastDoneIsAckedBeforeShutdown(t *testing.T) {
	for round := 0; round < 200; round++ {
		ts := NewTrainingServer(nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan struct{})
		go func() { defer close(served); _ = ts.Serve(ctx, l) }()
		go func() {
			if ts.WaitSubmissions(ctx, 1) == nil {
				cancel()
			}
		}()
		conn, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		err = conn.SubmitBatches(nil)
		conn.Close()
		cancel()
		<-served
		if err != nil {
			t.Fatalf("round %d: done not acknowledged: %v", round, err)
		}
	}
}
