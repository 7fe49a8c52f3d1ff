// Command cryptonn-bench regenerates the paper's evaluation tables and
// figures (§IV-B) and prints them in the paper's layout.
//
// Usage:
//
//	cryptonn-bench -exp all                 # everything, scaled defaults
//	cryptonn-bench -exp fig3|fig4|fig5      # micro-benchmarks
//	cryptonn-bench -exp fig6 -arch cnn      # accuracy-parity curves
//	cryptonn-bench -exp table3              # Table III
//	cryptonn-bench -exp comm                # §IV-B2 key traffic
//	cryptonn-bench -exp icd                 # sparse multi-label sweep
//	cryptonn-bench -paper                   # paper-scale parameters
//	                                          (256-bit group, 2k–10k
//	                                          elements; slow)
//
// Experiments are scaled down by default so the suite completes in
// minutes; -paper switches to the publication parameters. A scaled run
// reproduces each figure's shape, not the paper's absolute times (the
// package comment of internal/experiments says which shapes). Fig. 6 and
// Table III are one training run: -exp all trains the twins once.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"cryptonn/internal/experiments"
	"cryptonn/internal/group"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-bench:", err)
		os.Exit(1)
	}
}

// experimentNames are the values -exp accepts, in the order -exp all runs
// them.
var experimentNames = []string{"all", "fig3", "fig4", "fig5", "fig6", "table3", "comm", "icd"}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", "))
	arch := fs.String("arch", "mlp", "fig6/table3 architecture: mlp or cnn")
	etaDensity := fs.String("eta-density", "0.005,0.01,0.05", "icd: comma-separated input densities to sweep")
	topk := fs.Int("topk", 10, "icd: logits decrypted per sample by the top-k head")
	paper := fs.Bool("paper", false, "use the paper's parameters (256-bit group, full sweeps; slow)")
	bits := fs.Int("bits", 0, "override group modulus bits (default: 64, or 256 with -paper)")
	par := fs.Int("par", 0, "workers (0 = every core)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	pool := fs.Int("pool", 0, "fig6/table3 input down-pooling factor (0 = scaled default 2; 1 = paper's 28×28; ignored with -paper)")
	hidden := fs.Int("hidden", 0, "fig6/table3 MLP hidden width (0 = scaled default 16; paper: 32; ignored with -paper)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(experimentNames, *exp) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(experimentNames, ", "))
	}

	groupBits := group.TestBits
	if *paper {
		groupBits = group.PaperBits
	}
	if *bits != 0 {
		groupBits = *bits
	}

	run := func(name string, fn func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		fmt.Printf("=== %s ===\n", strings.ToUpper(name))
		return fn()
	}

	if err := run("fig3", func() error {
		return microExp(experiments.Fig3, "element-wise addition (Fig. 3)", groupBits, *paper, *par, *seed)
	}); err != nil {
		return err
	}
	if err := run("fig4", func() error {
		return microExp(experiments.Fig4, "element-wise multiplication (Fig. 4)", groupBits, *paper, *par, *seed)
	}); err != nil {
		return err
	}
	if err := run("fig5", func() error { return dotExp(groupBits, *paper, *par, *seed) }); err != nil {
		return err
	}
	// Fig. 6 and Table III print the two halves of one training run.
	var trained *experiments.TrainResult
	train := func(write func(*experiments.TrainResult, io.Writer)) error {
		if trained == nil {
			var err error
			if trained, err = experiments.Train(trainConfig(groupBits, *paper, *arch, *par, *seed, *pool, *hidden)); err != nil {
				return err
			}
		}
		write(trained, os.Stdout)
		fmt.Println()
		return nil
	}
	if err := run("fig6", func() error { return train((*experiments.TrainResult).WriteFig6) }); err != nil {
		return err
	}
	if err := run("table3", func() error { return train((*experiments.TrainResult).WriteTable3) }); err != nil {
		return err
	}
	if err := run("comm", func() error { return commExp(groupBits, *seed) }); err != nil {
		return err
	}
	if err := run("icd", func() error {
		return icdExp(groupBits, *paper, *etaDensity, *topk, *par, *seed)
	}); err != nil {
		return err
	}
	return nil
}

// icdExp prints the sparse extreme multi-label sweep: encryption and
// decryption cost per input density, sparse path vs dense, top-k head vs
// full solve.
func icdExp(bits int, paper bool, densities string, topk, par int, seed int64) error {
	var ds []float64
	for _, s := range strings.Split(densities, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -eta-density %q: %w", s, err)
		}
		ds = append(ds, d)
	}
	cfg := experiments.ICDConfig{
		Bits:        bits,
		Densities:   ds,
		TopK:        topk,
		Parallelism: par,
		Seed:        seed,
	}
	if paper {
		// The ICD-scale shape: 10k vocabulary, 5k codes. The dense
		// reference at this η dominates wall-clock, so only the sparse
		// path is measured; drop -paper for the side-by-side comparison.
		cfg.Eta = 10000
		cfg.Labels = 5000
		cfg.SkipDense = true
	}
	points, err := experiments.ICD(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("encrypted ICD coding (sparse engine, top-%d head)\n", topk)
	fmt.Printf("%-9s %7s %13s %13s %12s %13s %13s %12s\n",
		"density", "nnz", "enc-sparse", "enc-dense", "keyderive", "topk", "full-solve", "dlogs")
	for _, p := range points {
		encDense, full := "-", "-"
		if p.EncryptDense > 0 {
			encDense = p.EncryptDense.Round(10e3).String()
		}
		if p.FullCompute > 0 {
			full = p.FullCompute.Round(10e3).String()
		}
		fmt.Printf("%-9g %7d %13s %13s %12s %13s %13s %12s\n",
			p.Density, p.Nnz, p.EncryptSparse.Round(10e3), encDense,
			p.KeyDerive.Round(10e3), p.TopKCompute.Round(10e3), full,
			fmt.Sprintf("%d/%d", p.TopKSolved, p.TopKSolved+p.TopKSkipped))
	}
	fmt.Println()
	return nil
}

func microExp(fn func(experiments.MicroConfig) ([]experiments.MicroPoint, error), title string, bits int, paper bool, par int, seed int64) error {
	cfg := experiments.MicroConfig{Bits: bits, Parallelism: par, Seed: seed}
	if paper {
		cfg.Sizes = []int{2000, 4000, 6000, 8000, 10000}
	}
	points, err := fn(cfg)
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Printf("%-10s %-14s %12s %12s %14s %14s\n",
		"#elements", "range", "encrypt(a)", "keyderive(b)", "compute-seq(c)", "compute-par(d)")
	for _, p := range points {
		fmt.Printf("%-10d %-14s %12s %12s %14s %14s\n",
			p.Size, p.Range, p.Encrypt.Round(10e3), p.KeyDerive.Round(10e3),
			p.ComputeSeq.Round(10e3), p.ComputePar.Round(10e3))
	}
	fmt.Println()
	return nil
}

func dotExp(bits int, paper bool, par int, seed int64) error {
	cfg := experiments.DotConfig{Bits: bits, Parallelism: par, Seed: seed}
	if paper {
		cfg.Counts = []int{2000, 4000, 6000, 8000, 10000}
	}
	points, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	fmt.Println("dot-product (Fig. 5)")
	fmt.Printf("%-9s %-5s %-10s %12s %12s %14s %14s\n",
		"#vectors", "len", "range", "encrypt(a)", "keyderive(b)", "compute-seq(c)", "compute-par(d)")
	for _, p := range points {
		fmt.Printf("%-9d %-5d %-10s %12s %12s %14s %14s\n",
			p.Count, p.Length, p.Range, p.Encrypt.Round(10e3), p.KeyDerive.Round(10e3),
			p.ComputeSeq.Round(10e3), p.ComputePar.Round(10e3))
	}
	fmt.Println()
	return nil
}

// trainConfig is the Fig. 6 / Table III run: the scaled defaults of
// experiments.TrainConfig, or the paper's parameters under -paper.
func trainConfig(bits int, paper bool, arch string, par int, seed int64, pool, hidden int) experiments.TrainConfig {
	cfg := experiments.TrainConfig{
		Bits:        bits,
		Arch:        experiments.Arch(arch),
		Parallelism: par,
		Seed:        seed,
		Pool:        pool,
		Hidden:      hidden,
	}
	if paper {
		cfg.TrainSamples = 60000
		cfg.TestSamples = 10000
		cfg.BatchSize = 64
		cfg.Epochs = 2
		cfg.TickBatches = 50
		cfg.Pool = 1
		cfg.Hidden = 32
	}
	return cfg
}

func commExp(bits int, seed int64) error {
	res, err := experiments.CommOverhead(experiments.CommConfig{Bits: bits, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("key-traffic per iteration (§IV-B2)")
	fmt.Printf("formula   : k·n = %d weight scalars, k = %d keys (secure feed-forward)\n",
		res.PredictedScalars, res.PredictedKeys)
	fmt.Printf("measured  : %d scalars, %d keys (secure feed-forward)\n",
		res.MeasuredForwardScalars, res.MeasuredForwardKeys)
	fmt.Printf("full iter : %d scalars, %d IP keys, %d BO keys (adds gradient + label steps)\n\n",
		res.TotalScalars, res.TotalIPKeys, res.TotalBOKeys)
	return nil
}
