package service

import (
	"context"
	"net"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/wire"
)

// TestPredictionOverWire trains in process, then serves FE-based
// predictions over loopback TCP and checks they match in-process
// Predict, including the label-mapped setting.
func TestPredictionOverWire(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	const (
		features = 6
		classes  = 3
	)
	srv, err := New(auth, Config{
		Features: features,
		Classes:  classes,
		Hidden:   []int{5},
		Epochs:   2,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := core.NewLabelMap(classes, []byte("clinic-key"))
	if err != nil {
		t.Fatal(err)
	}
	ceng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(ceng, fixedpoint.Default(), labels)
	if err != nil {
		t.Fatal(err)
	}
	x, y := tinyBatch(features, classes, 6)
	trainEnc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.train(context.Background(), []*core.EncryptedBatch{trainEnc}); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.ServePredictions(ctx, l) }()

	// A fresh encrypted batch for prediction.
	px, py := tinyBatch(features, classes, 4)
	predEnc, err := client.EncryptBatch(px, py)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := conn.Predict(ctx, predEnc, 0)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := srv.Predict(predEnc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("prediction %d: wire %d, in-process %d", i, got[i], want[i])
		}
		// The wire carries masked classes; inverting with the client's
		// label map must give a valid class.
		cls, err := labels.Invert(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if cls < 0 || cls >= classes {
			t.Errorf("prediction %d inverts to out-of-range class %d", i, cls)
		}
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServePredictions: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServePredictions did not stop after cancellation")
	}
}

// TestPredictionServerRejectsGarbage exercises the prediction-server
// failure paths over a live socket.
func TestPredictionServerRejectsGarbage(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(auth, Config{Features: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServePredictions(ctx, l) }()
	defer func() { cancel(); <-served }()

	conn, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Wrong frame type: a submission's done marker. (Undecodable bodies are
	// covered frame by frame in internal/wire's hostile-peer tests.)
	if err := conn.SubmitBatches(nil); err == nil {
		t.Error("done marker accepted by a prediction server")
	}

	// A batch the server cannot evaluate, on the same connection.
	if _, err := conn.Predict(ctx, &core.EncryptedBatch{Features: 4, Classes: 2}, 0); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestPredictRejectsEmptyBatch: a nil batch, or one without its input
// ciphertexts, is an error from Predict, as a nil sparse batch is from
// PredictTopK, never a panic.
func TestPredictRejectsEmptyBatch(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(auth, Config{Features: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string]*core.EncryptedBatch{
		"nil batch":  nil,
		"nil inputs": {Features: 4, Classes: 2, N: 1},
	} {
		if _, err := srv.Predict(enc); err == nil {
			t.Errorf("%s: Predict accepted it", name)
		}
	}
	if _, err := srv.PredictTopK(nil, 1); err == nil {
		t.Error("PredictTopK accepted a nil batch")
	}
}
