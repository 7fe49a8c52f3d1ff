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
//	cryptonn-bench -paper                   # paper-scale parameters
//	                                          (256-bit group, 2k–10k
//	                                          elements; slow)
//
// Experiments are scaled down by default so the suite completes in
// minutes; -paper switches to the publication parameters. EXPERIMENTS.md
// records the shape comparison against the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"os"
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

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, fig3, fig4, fig5, fig6, table3, comm, ablation, icd")
	arch := fs.String("arch", "mlp", "fig6/table3 architecture: mlp or cnn")
	etaDensity := fs.String("eta-density", "0.005,0.01,0.05", "icd: comma-separated input densities to sweep")
	topk := fs.Int("topk", 10, "icd: logits decrypted per sample by the top-k head")
	paper := fs.Bool("paper", false, "use the paper's parameters (256-bit group, full sweeps; slow)")
	bits := fs.Int("bits", 0, "override group modulus bits (default: 64, or 256 with -paper)")
	par := fs.Int("par", 0, "workers (0 = every core)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	pool := fs.Int("pool", 2, "fig6/table3 input down-pooling factor (1 = paper's 28×28; ignored with -paper)")
	hidden := fs.Int("hidden", 16, "fig6/table3 MLP hidden width (paper: 32; ignored with -paper)")
	if err := fs.Parse(args); err != nil {
		return err
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
	if err := run("fig6", func() error { return fig6Exp(groupBits, *paper, *arch, *par, *seed, *pool, *hidden) }); err != nil {
		return err
	}
	if err := run("table3", func() error { return table3Exp(groupBits, *paper, *arch, *par, *seed, *pool, *hidden) }); err != nil {
		return err
	}
	if err := run("comm", func() error { return commExp(groupBits, *seed) }); err != nil {
		return err
	}
	if err := run("ablation", func() error { return ablationExp(groupBits, *par, *seed) }); err != nil {
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

// ablationExp prints the design-choice ablations (DESIGN.md §3): the
// dot-product-vs-element-wise composition the paper separates "due to
// efficiency considerations", the parallelization sweep, and the
// security-parameter cost curve.
func ablationExp(bits, par int, seed int64) error {
	dot, err := experiments.AblationDotComposition(experiments.DotCompositionConfig{Bits: bits, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("dot-product composition (§III-C remark)")
	fmt.Printf("%-28s %12s %10s\n", "path", "time", "keys")
	fmt.Printf("%-28s %12s %10d\n", "FEIP dot-product", dot.FEIPTime.Round(10e3), dot.FEIPKeys)
	fmt.Printf("%-28s %12s %10d\n", "FEBO mul + plaintext sum", dot.FEBOTime.Round(10e3), dot.FEBOKeys)
	fmt.Printf("dedicated path is %.1fx faster with %dx fewer keys\n\n",
		dot.Speedup, dot.FEBOKeys/dot.FEIPKeys)

	workers := []int{1, 2, 4, 8}
	if par > 0 {
		workers = []int{1, par}
	}
	parPts, err := experiments.AblationParallelism(experiments.ParallelismConfig{Bits: bits, Workers: workers, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("decryption parallelism sweep")
	fmt.Printf("%-10s %12s %10s\n", "workers", "time", "speedup")
	for _, p := range parPts {
		fmt.Printf("%-10d %12s %9.2fx\n", p.Workers, p.Time.Round(10e3), p.Speedup)
	}
	fmt.Println()

	bitPts, err := experiments.AblationGroupBits(experiments.GroupBitsConfig{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("security-parameter cost (paper fixes 256 bits)")
	fmt.Printf("%-8s %12s %12s %12s\n", "bits", "encrypt", "keyderive", "compute")
	for _, p := range bitPts {
		fmt.Printf("%-8d %12s %12s %12s\n", p.Bits,
			p.Encrypt.Round(10e3), p.KeyDerive.Round(10e3), p.Compute.Round(10e3))
	}
	fmt.Println()

	paths, err := experiments.AblationPredictionPaths(experiments.PredictPathsConfig{
		Bits: bits, Parallelism: par, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("prediction paths (§III-D privacy settings, 8-sample batch)")
	fmt.Printf("%-34s %12s\n", "path", "time")
	fmt.Printf("%-34s %12s\n", "plaintext (no privacy)", paths.Plain.Round(1e3))
	fmt.Printf("%-34s %12s\n", "FE (server learns class)", paths.FE.Round(10e3))
	fmt.Printf("%-34s %12s\n", "HE (server learns nothing)", paths.HE.Round(10e3))
	fmt.Printf("all paths agree on every class: %v\n\n", paths.Agree)
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
	} else {
		// Scaled defaults sized for a single-core run in minutes.
		cfg.TrainSamples = 100
		cfg.TestSamples = 60
		cfg.BatchSize = 10
		cfg.Epochs = 2
		cfg.TickBatches = 2
		if cfg.Arch == experiments.ArchCNN {
			// Secure convolution is the slow path; keep the run modest.
			cfg.TrainSamples = 32
			cfg.TestSamples = 32
			cfg.BatchSize = 8
			cfg.Epochs = 1
			cfg.TickBatches = 1
		}
	}
	return cfg
}

func fig6Exp(bits int, paper bool, arch string, par int, seed int64, pool, hidden int) error {
	points, err := experiments.Fig6(trainConfig(bits, paper, arch, par, seed, pool, hidden))
	if err != nil {
		return err
	}
	fmt.Printf("average batch accuracy, plaintext baseline vs CryptoNN (%s) (Fig. 6)\n", arch)
	fmt.Printf("%-6s %12s %12s\n", "tick", "baseline", "CryptoNN")
	for _, p := range points {
		fmt.Printf("%-6d %12.4f %12.4f\n", p.Tick, p.Plain, p.CryptoNN)
	}
	fmt.Println()
	return nil
}

func table3Exp(bits int, paper bool, arch string, par int, seed int64, pool, hidden int) error {
	res, err := experiments.Table3(trainConfig(bits, paper, arch, par, seed, pool, hidden))
	if err != nil {
		return err
	}
	fmt.Printf("accuracy and training time (%s) (Table III)\n", arch)
	fmt.Printf("%-12s", "model")
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
	fmt.Printf("overhead: %.1fx (paper: 57h/4h ≈ 14x); client encryption: %s\n\n",
		res.Overhead, res.EncryptTime.Round(1e6))
	return nil
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
