package service_test

import (
	"context"
	"fmt"
	"net"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/service"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// Example_predictionServing runs a minimal encrypted prediction
// client/server pair over loopback TCP: the server exposes its model
// through the coalescing prediction endpoint, the client encrypts inputs
// under the authority's public keys and receives per-sample classes —
// the server never sees the plaintext inputs.
func Example_predictionServing() {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		panic(err)
	}
	const (
		features = 4
		classes  = 3
		samples  = 2
	)
	srv, err := service.New(auth, service.Config{
		Features: features, Classes: classes, Hidden: []int{4}, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServePredictions(ctx, l) }()

	// The client side: encrypt a batch (labels are placeholders —
	// prediction reads only the input ciphertexts).
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		panic(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		panic(err)
	}
	x := tensor.NewDense(features, samples)
	y := tensor.NewDense(classes, samples)
	for j := 0; j < samples; j++ {
		y.Set(0, j, 1)
		for i := 0; i < features; i++ {
			x.Set(i, j, float64(i+j)/10)
		}
	}
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		panic(err)
	}

	conn, err := wire.Dial(l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	preds, err := conn.Predict(ctx, enc, 0)
	if err != nil {
		panic(err)
	}

	inRange := true
	for _, p := range preds {
		inRange = inRange && p >= 0 && p < classes
	}
	fmt.Printf("%d samples predicted; classes in range: %v\n", len(preds), inRange)
	cancel()
	<-served
	// Output: 2 samples predicted; classes in range: true
}
