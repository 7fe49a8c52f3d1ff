package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
)

func tinyMicroConfig() MicroConfig {
	return MicroConfig{
		Sizes:  []int{20, 40},
		Ranges: []ValueRange{{-10, 10}},
		Seed:   1,
	}
}

func TestFig3Shape(t *testing.T) {
	points, err := Fig3(tinyMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Encrypt <= 0 || p.KeyDerive <= 0 || p.ComputeSeq <= 0 || p.ComputePar <= 0 {
			t.Errorf("non-positive timing in %+v", p)
		}
	}
	// Linearity shape: doubling the size should not shrink encryption time.
	if points[1].Encrypt < points[0].Encrypt/2 {
		t.Errorf("encryption time shrank with size: %v then %v", points[0].Encrypt, points[1].Encrypt)
	}
}

func TestFig4MulCostsMoreThanFig3Add(t *testing.T) {
	// The paper's headline micro-result: secure multiplication is far more
	// expensive than addition (minutes vs seconds in Fig. 3c/4c) because
	// the discrete-log range grows with the product.
	cfg := MicroConfig{Sizes: []int{30}, Ranges: []ValueRange{{-1000, 1000}}, Seed: 2}
	add, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mul[0].ComputeSeq <= add[0].ComputeSeq {
		t.Errorf("mul (%v) should cost more than add (%v)", mul[0].ComputeSeq, add[0].ComputeSeq)
	}
}

func TestFig5Shape(t *testing.T) {
	points, err := Fig5(DotConfig{
		Counts:  []int{10, 20},
		Lengths: []int{5},
		Ranges:  []ValueRange{{1, 10}},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Encrypt <= 0 || p.ComputeSeq <= 0 {
			t.Errorf("non-positive timing in %+v", p)
		}
	}
}

// trainAndCheck runs Train and asserts what every run must show: one tick
// per TickBatches window across all epochs (⌈epochs·batches/tick⌉, the
// last window may be short), one Table III column per epoch, and the two
// twins' accuracies tracking each other (the paper's claim) within the
// per-tick and per-epoch parity tolerances.
func trainAndCheck(t *testing.T, cfg TrainConfig) *TrainResult {
	t.Helper()
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := cfg.TrainSamples / cfg.BatchSize
	if want := (cfg.Epochs*batches + cfg.TickBatches - 1) / cfg.TickBatches; len(res.Ticks) != want {
		t.Errorf("got %d ticks, want %d", len(res.Ticks), want)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Errorf("got %d epoch rows, want %d", len(res.Epochs), cfg.Epochs)
	}
	for _, p := range res.Ticks {
		if math.Abs(p.Plain-p.CryptoNN) > 0.35 {
			t.Errorf("tick %d: plain %.2f vs crypto %.2f diverged", p.Tick, p.Plain, p.CryptoNN)
		}
	}
	for i, e := range res.Epochs {
		if math.Abs(e.PlainAcc-e.CryptoAcc) > 0.3 {
			t.Errorf("epoch %d: plain %.2f vs crypto %.2f", i+1, e.PlainAcc, e.CryptoAcc)
		}
	}
	return res
}

func TestFig6ParityShape(t *testing.T) {
	// 6 batches an epoch in windows of 4: the second window spans the
	// epoch boundary and the third is short.
	trainAndCheck(t, TrainConfig{
		TrainSamples: 60,
		TestSamples:  30,
		BatchSize:    10,
		Epochs:       2,
		TickBatches:  4,
		Seed:         4,
		Pool:         4, // 7×7 inputs: tractable on 1-CPU CI boxes
		Hidden:       8,
	})
}

func TestTable3Shape(t *testing.T) {
	res := trainAndCheck(t, TrainConfig{
		TrainSamples: 60,
		TestSamples:  40,
		BatchSize:    10,
		Epochs:       2,
		TickBatches:  2,
		Seed:         5,
		Pool:         4,
		Hidden:       8,
	})
	// Training-time shape: CryptoNN is slower (paper: 57h vs 4h).
	for i, e := range res.Epochs {
		if e.CryptoTime <= e.PlainTime {
			t.Errorf("epoch %d: secure steps %v, plain steps %v", i+1, e.CryptoTime, e.PlainTime)
		}
	}
	if res.EncryptTime <= 0 {
		t.Error("encryption time not measured")
	}
	var out strings.Builder
	res.WriteFig6(&out)
	res.WriteTable3(&out)
	for _, want := range []string{"(Fig. 6)", "(Table III)", "epoch 2 (acc)", "overhead:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered tables miss %q:\n%s", want, out.String())
		}
	}
}

func TestTrainIsDeterministicAtOneSeed(t *testing.T) {
	// Decryption is exact and only the ciphertext randomness differs
	// between runs — what lets one run stand for both Fig. 6 and Table III.
	cfg := TrainConfig{
		TrainSamples: 40, TestSamples: 20, BatchSize: 10, Epochs: 2,
		TickBatches: 3, Seed: 9, Pool: 4, Hidden: 4,
	}
	a, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Ticks, b.Ticks) {
		t.Errorf("tick series differ:\n%v\n%v", a.Ticks, b.Ticks)
	}
	for i := range a.Epochs {
		if a.Epochs[i].PlainAcc != b.Epochs[i].PlainAcc || a.Epochs[i].CryptoAcc != b.Epochs[i].CryptoAcc {
			t.Errorf("epoch %d accuracies differ: %+v vs %+v", i+1, a.Epochs[i], b.Epochs[i])
		}
	}
}

func TestTrainTakesGroupFromKeyService(t *testing.T) {
	params, err := group.Embedded(128)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{
		TrainSamples: 20, TestSamples: 10, BatchSize: 10, Epochs: 1,
		TickBatches: 1, Seed: 3, Pool: 4, Hidden: 4, KeyService: auth,
	}
	if _, err := Train(cfg); err != nil {
		t.Fatalf("Bits 0 over a 128-bit key service: %v", err)
	}
	cfg.Bits = 64
	_, err = Train(cfg)
	if err == nil || !strings.Contains(err.Error(), "64") || !strings.Contains(err.Error(), "128") {
		t.Errorf("Bits 64 over a 128-bit key service: err %v, want one naming both widths", err)
	}
}

func TestCommOverheadMatchesFormula(t *testing.T) {
	res, err := CommOverhead(CommConfig{Features: 12, HiddenUnits: 4, Batch: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2: forward traffic is exactly k×n scalars and k keys.
	if res.MeasuredForwardScalars != res.PredictedScalars {
		t.Errorf("forward scalars %d, formula %d", res.MeasuredForwardScalars, res.PredictedScalars)
	}
	if res.MeasuredForwardKeys != res.PredictedKeys {
		t.Errorf("forward keys %d, formula %d", res.MeasuredForwardKeys, res.PredictedKeys)
	}
	// A full iteration also pays the gradient and label traffic.
	if res.TotalScalars <= res.PredictedScalars {
		t.Error("full iteration should exceed forward-only traffic")
	}
	if res.TotalBOKeys == 0 {
		t.Error("label step should consume FEBO keys")
	}
}

func TestCNNArchRunsOneTick(t *testing.T) {
	if testing.Short() {
		t.Skip("secure convolution run is slow")
	}
	trainAndCheck(t, TrainConfig{
		Arch:         ArchCNN,
		TrainSamples: 8,
		TestSamples:  10,
		BatchSize:    4,
		Epochs:       1,
		TickBatches:  1,
		Seed:         7,
		Pool:         2, // 14×14 inputs, 3×3 conv: 196 windows/sample
	})
}

func TestUnknownArchFails(t *testing.T) {
	if _, err := Train(TrainConfig{Arch: "transformer"}); err == nil {
		t.Error("unknown arch should fail")
	}
}

func TestDefaultsFill(t *testing.T) {
	var mc MicroConfig
	mc.fillDefaults()
	if mc.Bits == 0 || len(mc.Sizes) == 0 || len(mc.Ranges) == 0 {
		t.Error("micro defaults incomplete")
	}
	var dc DotConfig
	dc.fillDefaults()
	if dc.Bits == 0 || len(dc.Counts) == 0 || len(dc.Lengths) == 0 {
		t.Error("dot defaults incomplete")
	}
	var tc TrainConfig
	tc.fillDefaults()
	if tc.Arch != ArchMLP || tc.BatchSize == 0 {
		t.Error("train defaults incomplete")
	}
	var cc CommConfig
	cc.fillDefaults()
	if cc.Features == 0 || cc.HiddenUnits == 0 {
		t.Error("comm defaults incomplete")
	}
}

func TestTrainConfigPoolDefaults(t *testing.T) {
	cfg := TrainConfig{}
	cfg.fillDefaults()
	if cfg.Pool != 2 || cfg.Hidden != 16 {
		t.Errorf("default Pool/Hidden = %d/%d, want the scaled 2/16", cfg.Pool, cfg.Hidden)
	}
	if cfg.features() != 14*14 {
		t.Errorf("features() = %d at Pool 2, want 196", cfg.features())
	}
	cfg.Pool = 1
	if cfg.features() != 28*28 {
		t.Errorf("features() = %d at Pool 1, want 784", cfg.features())
	}
}

func TestTrainConfigCNNDefaults(t *testing.T) {
	cfg := TrainConfig{Arch: ArchCNN}
	cfg.fillDefaults()
	got := [5]int{cfg.TrainSamples, cfg.TestSamples, cfg.BatchSize, cfg.Epochs, cfg.TickBatches}
	if want := [5]int{32, 32, 8, 1, 1}; got != want {
		t.Errorf("CNN samples/test/batch/epochs/tick = %v, want %v", got, want)
	}
	// An explicit field survives the override.
	cfg = TrainConfig{Arch: ArchCNN, Epochs: 3}
	cfg.fillDefaults()
	if cfg.Epochs != 3 {
		t.Errorf("explicit Epochs 3 became %d", cfg.Epochs)
	}
}
