// Command cryptonn-train runs the Fig. 6 / Table III experiment at a size
// of your choosing: it trains a plaintext baseline and a CryptoNN twin
// from identical initialisation on the same (MNIST or synthetic) data,
// once, and prints the accuracy-parity series plus the timing comparison
// in the same layout as cryptonn-bench -exp fig6|table3. Its keys can come
// from a remote authority or a threshold cluster instead of an in-process
// one.
//
// Usage:
//
//	cryptonn-train                       # scaled MLP run, seconds
//	cryptonn-train -arch cnn             # CryptoCNN (secure convolution)
//	cryptonn-train -samples 60000 -test 10000 -batch 64 -epochs 2 \
//	    -tick 50 -pool 1 -hidden 32 -bits 256
//	                                     # the paper's parameters (slow)
//	cryptonn-train -authority 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	                                     # keys from a threshold authority cluster
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

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
	pool := fs.Int("pool", 0, "input down-pooling factor (0 = scaled default 2; 1 = paper's 28×28)")
	hidden := fs.Int("hidden", 0, "MLP hidden width (0 = scaled default 16; paper: 32)")
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
		keys, err := wire.DialKeys(*authorityAddrs, logger)
		if err != nil {
			return err
		}
		defer keys.Close()
		cfg.KeyService = keys
	}

	res, err := experiments.Train(cfg)
	if err != nil {
		return err
	}
	res.WriteFig6(os.Stdout)
	fmt.Println()
	res.WriteTable3(os.Stdout)
	return nil
}
