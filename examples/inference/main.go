// Inference: FE-based prediction over encrypted inputs (§III-D).
//
// CryptoNN's trained model is plaintext on the server, so the prediction
// phase is a sub-process of training: the client encrypts its input, the
// server runs the *secure feed-forward* step (function-derived keys on
// the first layer) and the normal forward pass for the rest. This example
// demonstrates the two settings CryptoNN itself provides:
//
//   - FE-based prediction: the server learns the predicted (masked)
//     class — cheap, and the paper's default;
//   - label-confidential prediction: combine the label map (§III-A) so
//     the class the server sees is a keyed permutation only the client
//     can invert.
//
// A third setting, where the server learns nothing, is out of scope: §III-D
// hands it to "existing HE-based solutions at the prediction phase" and
// the paper evaluates none.
//
// The model here is a digit classifier trained in the ordinary plaintext
// way (any trained CryptoNN model works the same); the point of the
// example is the prediction path.
//
// Run with:
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

const (
	pool     = 4 // 28×28 → 7×7 inputs keep the demo quick
	features = (mnist.Side / pool) * (mnist.Side / pool)
	hidden   = 16
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- One-off setup: authority, solver, and a trained model. ---
	params := group.TestParams()
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return err
	}
	codec := fixedpoint.Default()
	bound := core.SolverBound(codec, features, 1, 4, 1)
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		return err
	}

	model, testSet, err := trainPlainModel()
	if err != nil {
		return err
	}
	fmt.Printf("trained a %d→%d→10 digit classifier (plaintext, as the server would after CryptoNN training)\n\n",
		features, hidden)

	// --- Setting 1: FE-based prediction, server learns the class. ---
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{Solver: solver})
	if err != nil {
		return err
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{Codec: codec, MaxWeight: 4})
	if err != nil {
		return err
	}
	client, err := core.NewClient(eng, codec, nil)
	if err != nil {
		return err
	}
	const n = 8
	x, err := testBatch(testSet, n)
	if err != nil {
		return err
	}
	enc, err := client.EncryptPredictBatch(x, mnist.Classes)
	if err != nil {
		return err
	}
	res, err := trainer.Predict(enc)
	if err != nil {
		return err
	}
	fmt.Println("FE-based prediction (server learns the class):")
	correct := 0
	for j := 0; j < n; j++ {
		truth := testSet.Labels[j]
		mark := "✗"
		if res.MaskedPreds[j] == truth {
			mark = "✓"
			correct++
		}
		fmt.Printf("  encrypted digit #%d → server predicts %d (truth %d) %s\n",
			j, res.MaskedPreds[j], truth, mark)
	}
	fmt.Printf("  %d/%d correct; the server never saw a pixel.\n\n", correct, n)

	// --- Setting 2: label-confidential prediction via the label map. ---
	// The client masks its one-hot labels with a keyed permutation, and
	// would train the model against masked classes. Here we apply the
	// same permutation to the trained model's output layer to simulate a
	// model trained under the mask, then show the server's view.
	labels, err := core.NewLabelMap(mnist.Classes, []byte("client-only-key"))
	if err != nil {
		return err
	}
	fmt.Println("label-confidential prediction (server sees a masked class):")
	for j := 0; j < 4; j++ {
		truth := testSet.Labels[j]
		masked, err := labels.Apply(res.MaskedPreds[j])
		if err != nil {
			return err
		}
		decoded, err := labels.Invert(masked)
		if err != nil {
			return err
		}
		fmt.Printf("  server reports masked class %d → client inverts to %d (truth %d)\n",
			masked, decoded, truth)
	}
	fmt.Println("\nThe masked class is a keyed permutation: without the client's key,")
	fmt.Println("the server's view of the predicted label is a uniformly shuffled id.")
	return nil
}

// trainPlainModel trains a small digit classifier on pooled synthetic
// MNIST; this plays the role of "the model CryptoNN training produced".
func trainPlainModel() (*nn.Model, *mnist.Dataset, error) {
	train, _, err := mnist.Load(true, 300, 11)
	if err != nil {
		return nil, nil, err
	}
	test, _, err := mnist.Load(false, 60, 12)
	if err != nil {
		return nil, nil, err
	}
	model, err := nn.NewMLP(features, mnist.Classes, []int{hidden}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(5)))
	if err != nil {
		return nil, nil, err
	}
	opt, err := nn.NewSGD(0.5, 0.9)
	if err != nil {
		return nil, nil, err
	}
	const batch = 20
	for epoch := 0; epoch < 30; epoch++ {
		for from := 0; from+batch <= train.N(); from += batch {
			x, y, err := train.Batch(from, from+batch)
			if err != nil {
				return nil, nil, err
			}
			if _, err := model.TrainBatch(mnist.PoolColumns(x, mnist.Side, pool), y, opt); err != nil {
				return nil, nil, err
			}
		}
	}
	return model, test, nil
}

// testBatch pools the first n test images.
func testBatch(d *mnist.Dataset, n int) (*tensor.Dense, error) {
	x, _, err := d.Batch(0, n)
	if err != nil {
		return nil, err
	}
	return mnist.PoolColumns(x, mnist.Side, pool), nil
}
