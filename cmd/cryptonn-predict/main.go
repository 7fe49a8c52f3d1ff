// Command cryptonn-predict is a prediction client (§III-D): it encrypts
// input samples under the authority's public keys and asks a running
// training server (started with -predict-listen) for their classes. The
// server sees only ciphertexts; if a label-mapping key is supplied, the
// classes the server reports are masked and this client inverts them
// locally.
//
// Usage:
//
//	cryptonn-predict -authority 127.0.0.1:7001 -server 127.0.0.1:7003 \
//	    -features 196 -classes 10 -samples 8 -label-key clinic-shared-secret
//
// Inputs are synthesized deterministically from -seed (the same generator
// as cryptonn-client), so a client/server pair started with matching
// flags demonstrates the full encrypted prediction loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/mnist"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-predict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-predict", flag.ContinueOnError)
	authorityAddr := fs.String("authority", "127.0.0.1:7001", "authority address, or comma-separated cluster node list")
	serverAddr := fs.String("server", "127.0.0.1:7003", "prediction server address")
	features := fs.Int("features", 784, "input feature count (must match the server's model)")
	classes := fs.Int("classes", 10, "output classes")
	samples := fs.Int("samples", 8, "samples to predict")
	labelKey := fs.String("label-key", "", "label-mapping key shared among data owners (empty: identity)")
	seed := fs.Int64("seed", 7, "synthetic data seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	keys, err := wire.DialKeys(*authorityAddr, log.New(os.Stderr, "predict: ", log.LstdFlags))
	if err != nil {
		return err
	}
	defer keys.Close()

	var labels *core.LabelMap
	if *labelKey != "" {
		labels, err = core.NewLabelMap(*classes, []byte(*labelKey))
		if err != nil {
			return err
		}
	}
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), labels)
	if err != nil {
		return err
	}

	x, truth, err := syntheticInputs(*features, *samples, *seed)
	if err != nil {
		return err
	}
	enc, err := client.EncryptPredictBatch(x, *classes)
	if err != nil {
		return err
	}

	conn, err := wire.Dial(*serverAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	masked, err := conn.Predict(context.Background(), enc, 0)
	if err != nil {
		return err
	}

	fmt.Printf("%d encrypted samples predicted:\n", *samples)
	correct := 0
	for j, m := range masked {
		cls := m
		if labels != nil {
			if cls, err = labels.Invert(m); err != nil {
				return err
			}
		}
		mark := ""
		if truth[j] >= 0 {
			if cls == truth[j]%*classes {
				mark = " ✓"
				correct++
			} else {
				mark = " ✗"
			}
		}
		if labels != nil {
			fmt.Printf("  sample %d: masked %d → class %d%s\n", j, m, cls, mark)
		} else {
			fmt.Printf("  sample %d: class %d%s\n", j, cls, mark)
		}
	}
	fmt.Printf("%d/%d match the synthetic ground truth\n", correct, *samples)
	return nil
}

// syntheticInputs renders deterministic digit images (pooled to the
// requested feature count when it divides the MNIST geometry) or falls
// back to a generic deterministic pattern.
func syntheticInputs(features, n int, seed int64) (*tensor.Dense, []int, error) {
	truth := make([]int, n)
	if side := intSqrt(features); side > 0 && mnist.Side%side == 0 {
		ds, err := mnist.Synthetic(n, seed)
		if err != nil {
			return nil, nil, err
		}
		x, _, err := ds.Batch(0, n)
		if err != nil {
			return nil, nil, err
		}
		copy(truth, ds.Labels[:n])
		f := mnist.Side / side
		return mnist.PoolColumns(x, mnist.Side, f), truth, nil
	}
	x := tensor.NewDense(features, n)
	for j := 0; j < n; j++ {
		truth[j] = -1 // no ground truth for generic patterns
		for i := 0; i < features; i++ {
			x.Set(i, j, float64((i*31+j*17+int(seed))%100)/100)
		}
	}
	return x, truth, nil
}

func intSqrt(v int) int {
	for s := 1; s*s <= v; s++ {
		if s*s == v {
			return s
		}
	}
	return 0
}
