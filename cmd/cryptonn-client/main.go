// Command cryptonn-client is a data owner of Fig. 1: it loads (or
// synthesizes) labelled data, encrypts it under the authority's public
// keys with the paper's pre-processing (fixed-point encoding, one-hot +
// label mapping), and submits the ciphertext batches to a training server.
//
// Usage:
//
//	cryptonn-client -authority 127.0.0.1:7001 -server 127.0.0.1:7002 \
//	    -samples 64 -batch 16 -label-key clinic-shared-secret
//
// A comma-separated -authority list selects threshold-cluster mode: the
// client derives keys from any T of the listed nodes (partial keys,
// Lagrange-combined and verified client-side) and tolerates N−T node
// failures transparently.
//
// Nothing leaving this process is plaintext: the server receives only
// FEIP/FEBO ciphertexts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/mnist"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-client", flag.ContinueOnError)
	authorityAddr := fs.String("authority", "127.0.0.1:7001", "authority address, or comma-separated cluster node addresses")
	serverAddr := fs.String("server", "127.0.0.1:7002", "training server address")
	samples := fs.Int("samples", 64, "number of samples to contribute")
	batch := fs.Int("batch", 16, "batch size")
	labelKey := fs.String("label-key", "", "shared secret for label mapping (empty = no masking)")
	seed := fs.Int64("seed", 1, "data seed (synthetic fallback; set MNIST_DIR for real data)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Only whole batches are encrypted, so these would submit nothing.
	if *batch < 1 || *batch > *samples {
		return fmt.Errorf("-batch must be between 1 and -samples (%d), got %d", *samples, *batch)
	}

	logger := log.New(os.Stderr, "client: ", log.LstdFlags)
	keys, err := wire.DialKeys(*authorityAddr, logger)
	if err != nil {
		return err
	}
	defer func() {
		if err := keys.Close(); err != nil {
			logger.Printf("closing key service: %v", err)
		}
	}()

	var lm *core.LabelMap
	if *labelKey != "" {
		lm, err = core.NewLabelMap(mnist.Classes, []byte(*labelKey))
		if err != nil {
			return err
		}
		logger.Printf("label mapping enabled")
	}
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	client, err := core.NewClient(eng, nil, lm)
	if err != nil {
		return err
	}

	data, real, err := mnist.Load(true, *samples, *seed)
	if err != nil {
		return err
	}
	source := "synthetic"
	if real {
		source = "MNIST_DIR"
	}
	logger.Printf("loaded %d samples (%s); encrypting in batches of %d", data.N(), source, *batch)

	start := time.Now()
	var batches []*core.EncryptedBatch
	for from := 0; from+*batch <= data.N(); from += *batch {
		x, y, err := data.Batch(from, from+*batch)
		if err != nil {
			return err
		}
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			return fmt.Errorf("encrypting batch at %d: %w", from, err)
		}
		batches = append(batches, enc)
	}
	logger.Printf("encrypted %d batches in %s", len(batches), time.Since(start).Round(time.Millisecond))

	conn, err := wire.Dial(*serverAddr)
	if err != nil {
		return err
	}
	defer func() {
		if err := conn.Close(); err != nil {
			logger.Printf("closing server connection: %v", err)
		}
	}()
	if err := conn.SubmitBatches(batches); err != nil {
		return err
	}
	logger.Printf("submitted %d encrypted batches to %s", len(batches), *serverAddr)
	return nil
}
