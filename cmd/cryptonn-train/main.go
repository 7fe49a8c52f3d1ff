// Command cryptonn-train runs the full Table III / Fig. 6 style
// experiment locally in one process: it trains a plaintext baseline and a
// CryptoNN twin from identical initialisation on the same (MNIST or
// synthetic) data and prints the accuracy-parity series plus the timing
// comparison.
//
// Usage:
//
//	cryptonn-train                       # scaled MLP run, minutes
//	cryptonn-train -arch cnn             # CryptoCNN (secure convolution)
//	cryptonn-train -samples 60000 -batch 64 -epochs 2 -bits 256
//	                                     # the paper's parameters (slow)
//	cryptonn-train -authority 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	                                     # keys from a threshold authority cluster
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cryptonn/internal/experiments"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-train", flag.ContinueOnError)
	arch := fs.String("arch", "mlp", "architecture: mlp or cnn")
	samples := fs.Int("samples", 0, "training samples (0 = scaled default)")
	test := fs.Int("test", 0, "test samples (0 = scaled default)")
	batch := fs.Int("batch", 0, "batch size (paper: 64)")
	epochs := fs.Int("epochs", 0, "epochs (paper: 2)")
	lr := fs.Float64("lr", 0, "learning rate")
	tick := fs.Int("tick", 0, "Fig. 6 averaging window in batches (paper: 50)")
	bits := fs.Int("bits", 0, "group modulus bits (paper: 256; default 64)")
	par := fs.Int("par", 0, "workers (0 = every core)")
	seed := fs.Int64("seed", 1, "seed")
	pool := fs.Int("pool", 2, "input down-pooling factor (1 = paper's 28×28)")
	hidden := fs.Int("hidden", 16, "MLP hidden width (paper: 32)")
	authorityAddrs := fs.String("authority", "", "remote authority address(es); comma-separated list = threshold cluster (empty = in-process)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.TrainConfig{
		Bits:         *bits,
		Arch:         experiments.Arch(*arch),
		TrainSamples: *samples,
		TestSamples:  *test,
		BatchSize:    *batch,
		Epochs:       *epochs,
		LR:           *lr,
		TickBatches:  *tick,
		Parallelism:  *par,
		Seed:         *seed,
		Pool:         *pool,
		Hidden:       *hidden,
	}
	if *authorityAddrs != "" {
		logger := log.New(os.Stderr, "train: ", log.LstdFlags)
		list := strings.Split(*authorityAddrs, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		if len(list) == 1 {
			keys, err := wire.DialKeyService(list[0])
			if err != nil {
				return err
			}
			defer keys.Close()
			cfg.KeyService = keys
		} else {
			q, err := wire.DialQuorumKeyService(list, wire.QuorumOptions{Logger: logger})
			if err != nil {
				return err
			}
			defer q.Close()
			t, n := q.Threshold()
			logger.Printf("threshold authority cluster: %d nodes, quorum T=%d", n, t)
			cfg.KeyService = q
		}
	}
	if *samples == 0 {
		cfg.TrainSamples = 100
		cfg.TestSamples = 60
		cfg.BatchSize = 10
		cfg.TickBatches = 2
		if cfg.Arch == experiments.ArchCNN {
			cfg.TrainSamples = 32
			cfg.TestSamples = 32
			cfg.BatchSize = 8
			cfg.Epochs = 1
			cfg.TickBatches = 1
		}
	}

	fmt.Printf("CryptoNN vs plaintext baseline (%s)\n\n", cfg.Arch)
	points, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s   (Fig. 6: average batch accuracy)\n", "tick", "baseline", "CryptoNN")
	for _, p := range points {
		fmt.Printf("%-6d %12.4f %12.4f\n", p.Tick, p.Plain, p.CryptoNN)
	}

	res, err := experiments.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nTable III\n%-12s", "model")
	for e := range res.PlainAcc {
		fmt.Printf(" epoch %d (acc)", e+1)
	}
	fmt.Printf(" %14s\n", "training time")
	fmt.Printf("%-12s", "baseline")
	for _, a := range res.PlainAcc {
		fmt.Printf(" %12.2f%%", a*100)
	}
	fmt.Printf(" %14s\n", res.PlainTime.Round(1e6))
	fmt.Printf("%-12s", "CryptoNN")
	for _, a := range res.CryptoAcc {
		fmt.Printf(" %12.2f%%", a*100)
	}
	fmt.Printf(" %14s\n", res.CryptoTime.Round(1e6))
	fmt.Printf("\nsecure/plain training-time ratio: %.1fx (paper: ~14x at 256-bit, full MNIST)\n", res.Overhead)
	fmt.Printf("client-side encryption (one-off): %s\n", res.EncryptTime.Round(1e6))
	return nil
}
