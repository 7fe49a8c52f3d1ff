// Command cryptonn-bench regenerates the paper's evaluation tables and
// figures (§IV-B) and prints them in the paper's layout. It is the one
// driver of every result.
//
// Usage:
//
//	cryptonn-bench -exp all                 # everything, scaled defaults
//	cryptonn-bench -exp fig3|fig4|fig5      # micro-benchmarks
//	cryptonn-bench -exp fig6 -arch cnn      # accuracy-parity curves
//	cryptonn-bench -exp table3              # Table III
//	cryptonn-bench -exp table3 -paper -samples 6000 -test 1000
//	                                        # the paper's geometry, sized
//	cryptonn-bench -exp table3 -authority 127.0.0.1:7001,127.0.0.1:7002
//	                                        # keys from a threshold cluster
//	cryptonn-bench -exp comm                # §IV-B2 key traffic
//	cryptonn-bench -exp icd                 # sparse multi-label sweep
//	cryptonn-bench -paper                   # paper-scale parameters (slow)
//
// Experiments are scaled down by default so the suite completes in
// minutes. -paper is a preset of the publication parameters (256-bit
// group, 2k–10k elements, 60000/10000 samples at 28×28, a 784-32-10
// network, batch 64, 2 epochs, a 50-batch tick, an ICD head of η = 10000
// by 5000 labels without the dense reference); every flag given
// explicitly overrides it. A scaled run reproduces each figure's shape,
// not the paper's absolute times (the package comment of
// internal/experiments says which shapes). Fig. 6 and Table III are one
// training run: -exp all trains the twins once.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"cryptonn/internal/experiments"
	"cryptonn/internal/group"
	"cryptonn/internal/wire"
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

// paperPreset is -paper, as the flag values it stands for. A flag given
// on the command line keeps its own value. The preset batch is the
// training batch; the ICD sweep keeps its own unless -batch is given.
var paperPreset = map[string]string{
	"bits": strconv.Itoa(group.PaperBits), "samples": "60000", "test": "10000", "batch": "64", "epochs": "2", "tick": "50",
	"pool": "1", "hidden": "32", "eta": "10000", "labels": "5000", "skip-dense": "true",
}

// options is one parsed command line.
type options struct {
	exp       string
	paper     bool
	bits      int
	seed      int64
	authority string
	train     experiments.TrainConfig
	icd       experiments.ICDConfig
}

func parseOptions(args []string) (*options, error) {
	var o options
	t, c := &o.train, &o.icd
	fs := flag.NewFlagSet("cryptonn-bench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experimentNames, ", "))
	fs.BoolVar(&o.paper, "paper", false, "preset of the paper's parameters (256-bit group, full sizes; slow); explicit flags override it")
	fs.IntVar(&o.bits, "bits", 0, "group modulus bits (0 = 64, or the -authority cluster's; -paper: 256)")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	arch := fs.String("arch", "mlp", "fig6/table3 architecture: mlp or cnn")
	fs.IntVar(&t.TrainSamples, "samples", 0, "fig6/table3 training samples (0 = scaled default; -paper: 60000)")
	fs.IntVar(&t.TestSamples, "test", 0, "fig6/table3 test samples (0 = scaled default; -paper: 10000)")
	batch := fs.Int("batch", 0, "fig6/table3 and icd batch size (0 = each experiment's default; -paper: 64 for training)")
	fs.IntVar(&t.Epochs, "epochs", 0, "fig6/table3 epochs (0 = scaled default; -paper: 2)")
	fs.Float64Var(&t.LR, "lr", 0, "fig6/table3 SGD learning rate (0 = 0.3)")
	fs.IntVar(&t.TickBatches, "tick", 0, "Fig. 6 averaging window in batches (0 = scaled default; -paper: 50)")
	fs.IntVar(&t.Pool, "pool", 0, "fig6/table3 input down-pooling factor (0 = 2; -paper: 1, the 28×28 input)")
	fs.IntVar(&t.Hidden, "hidden", 0, "fig6/table3 MLP hidden width (0 = 16; -paper: 32)")
	fs.StringVar(&o.authority, "authority", "", "fig6/table3 key authority, or a comma-separated cluster node list (empty = in-process)")
	fs.IntVar(&c.Eta, "eta", 0, "icd vocabulary size η (0 = 2000; -paper: 10000)")
	fs.IntVar(&c.Labels, "labels", 0, "icd output labels (0 = 200; -paper: 5000)")
	fs.BoolVar(&c.SkipDense, "skip-dense", false, "icd: skip the dense-path reference measurements (-paper: true)")
	fs.IntVar(&c.TopK, "topk", 10, "icd: logits decrypted per sample by the top-k head")
	fs.Func("eta-density", "icd: comma-separated input densities to sweep (default 0.005,0.01,0.05)", func(s string) error {
		c.Densities = nil
		for _, f := range strings.Split(s, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return err
			}
			c.Densities = append(c.Densities, d)
		}
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !slices.Contains(experimentNames, o.exp) {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", o.exp, strings.Join(experimentNames, ", "))
	}
	if o.authority != "" && o.exp != "fig6" && o.exp != "table3" {
		return nil, fmt.Errorf("-authority keys the training run, and -exp %s does not train (use fig6 or table3)", o.exp)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.paper {
		for name, v := range paperPreset {
			if !set[name] {
				if err := fs.Set(name, v); err != nil {
					return nil, err
				}
			}
		}
	}
	t.Arch = experiments.Arch(*arch)
	t.Bits, t.Seed, t.BatchSize = o.bits, o.seed, *batch
	c.Bits, c.Seed = o.bits, o.seed
	if set["batch"] {
		c.Batch = *batch
	}
	return &o, nil
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.authority != "" {
		keys, err := wire.DialKeys(o.authority, log.New(os.Stderr, "cryptonn-bench: ", log.LstdFlags))
		if err != nil {
			return err
		}
		defer keys.Close()
		o.train.KeyService = keys
	}

	// Fig. 6 and Table III print the two halves of one training run.
	var trained *experiments.TrainResult
	train := func(write func(*experiments.TrainResult, io.Writer)) error {
		if trained == nil {
			var err error
			if trained, err = experiments.Train(o.train); err != nil {
				return err
			}
		}
		write(trained, os.Stdout)
		fmt.Println()
		return nil
	}
	exps := map[string]func() error{
		"fig3":   func() error { return microExp(experiments.Fig3, "element-wise addition (Fig. 3)", o) },
		"fig4":   func() error { return microExp(experiments.Fig4, "element-wise multiplication (Fig. 4)", o) },
		"fig5":   func() error { return dotExp(o) },
		"fig6":   func() error { return train((*experiments.TrainResult).WriteFig6) },
		"table3": func() error { return train((*experiments.TrainResult).WriteTable3) },
		"comm":   func() error { return commExp(o.bits, o.seed) },
		"icd":    func() error { return icdExp(o.icd) },
	}
	for _, name := range experimentNames[1:] {
		if o.exp != "all" && o.exp != name {
			continue
		}
		fmt.Printf("=== %s ===\n", strings.ToUpper(name))
		if err := exps[name](); err != nil {
			return err
		}
	}
	return nil
}

// icdExp prints the sparse extreme multi-label sweep: encryption and
// decryption cost per input density, sparse path vs dense, top-k head vs
// full solve.
func icdExp(cfg experiments.ICDConfig) error {
	points, err := experiments.ICD(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("encrypted ICD coding (sparse engine, top-%d head)\n", cfg.TopK)
	fmt.Printf("%-9s %7s %13s %13s %9s %12s %13s %13s %12s\n",
		"density", "nnz", "enc-sparse", "enc-dense", "enc-gain", "keyderive", "topk", "full-solve", "dlogs")
	for _, p := range points {
		encDense, encGain, full := "-", "-", "-"
		if p.EncryptDense > 0 {
			encDense = p.EncryptDense.Round(10e3).String()
			encGain = fmt.Sprintf("%.1fx", float64(p.EncryptDense)/float64(p.EncryptSparse))
		}
		if p.FullCompute > 0 {
			full = p.FullCompute.Round(10e3).String()
		}
		fmt.Printf("%-9g %7d %13s %13s %9s %12s %13s %13s %12s\n",
			p.Density, p.Nnz, p.EncryptSparse.Round(10e3), encDense, encGain,
			p.KeyDerive.Round(10e3), p.TopKCompute.Round(10e3), full,
			fmt.Sprintf("%d/%d", p.TopKSolved, p.TopKSolved+p.TopKSkipped))
	}
	fmt.Println("\ndlogs column: discrete logs solved / total output cells — the top-k head")
	fmt.Println("pays k solves per record; every skipped cell is a dlog never computed.")
	fmt.Println()
	return nil
}

// paperSizes are the element and vector counts Fig. 3–5 sweep under -paper.
var paperSizes = []int{2000, 4000, 6000, 8000, 10000}

func microExp(fn func(experiments.MicroConfig) ([]experiments.MicroPoint, error), title string, o *options) error {
	cfg := experiments.MicroConfig{Bits: o.bits, Seed: o.seed}
	if o.paper {
		cfg.Sizes = paperSizes
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

func dotExp(o *options) error {
	cfg := experiments.DotConfig{Bits: o.bits, Seed: o.seed}
	if o.paper {
		cfg.Counts = paperSizes
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
